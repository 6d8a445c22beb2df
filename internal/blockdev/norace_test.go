//go:build !race

package blockdev

const raceEnabled = false
