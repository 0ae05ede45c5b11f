//go:build !race

package rpc_test

const raceEnabled = false
