//go:build race

package lp

// raceEnabled reports a -race build, whose instrumentation allocates, so
// allocation counts mean nothing.
const raceEnabled = true
