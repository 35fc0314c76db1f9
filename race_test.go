//go:build race

package avail

const raceEnabled = true
