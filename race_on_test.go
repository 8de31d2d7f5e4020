//go:build race

package repro

// raceEnabled reports whether the race detector is compiled in. Under it
// sync.Pool drops a random share of the objects put back, so pooled
// buffers are reallocated and bytes/op ceilings do not hold.
const raceEnabled = true
