//go:build !race

package schedule

const raceEnabled = false
