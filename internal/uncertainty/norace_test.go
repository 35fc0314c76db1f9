//go:build !race

package uncertainty

const raceEnabled = false
