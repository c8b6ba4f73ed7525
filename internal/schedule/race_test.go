//go:build race

package schedule

// raceEnabled reports a -race build, under which sync.Pool drops a
// random share of what is put back, so allocation counts mean nothing.
const raceEnabled = true
