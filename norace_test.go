//go:build !race

package avail

const raceEnabled = false
