//go:build race

package scenario

// raceEnabled lets single-goroutine, CPU-heavy tests skip under the race
// detector, which slows them by an order of magnitude and has nothing to
// check in them.
const raceEnabled = true
