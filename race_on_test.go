//go:build race

package adept2_test

// raceEnabled reports that the race detector is on: sync.Pool then drops
// items at random, so exact allocation counts are not reproducible.
const raceEnabled = true
