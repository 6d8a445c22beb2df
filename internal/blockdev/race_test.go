//go:build race

package blockdev

// raceEnabled reports a -race build, whose sync.Pool drops a share of Put
// items on purpose, so pooled paths allocate there.
const raceEnabled = true
