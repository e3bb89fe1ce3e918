//go:build race

package limitless_test

// The race detector makes sync.Pool drop a random quarter of its Puts, so
// the recycling that TestSequentialAllocBytes gauges cannot be measured in
// a race build.
func init() { raceEnabled = true }
