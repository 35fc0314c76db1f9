//go:build !race

package jsas

const raceEnabled = false
