//go:build !race

package schedroute

const raceEnabled = false
