//go:build race

package rpc_test

// raceEnabled reports that the race detector is on: sync.Pool then drops
// items at random, so allocation counts are not reproducible.
const raceEnabled = true
