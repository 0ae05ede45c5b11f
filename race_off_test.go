//go:build !race

package adept2_test

const raceEnabled = false
