//go:build race

package schedroute

// raceEnabled reports a -race build, under which sync.Pool drops a
// random share of what is put back, so allocation counts mean nothing.
const raceEnabled = true
