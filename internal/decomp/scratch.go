package decomp

import (
	"sync"

	"repro/internal/bigraph"
	"repro/internal/bitset"
)

// workspace bundles the flat scratch one peeling call needs — the
// two-hop query object, peeling queues, per-vertex flags and the CSR
// induction buffers. The public mask functions draw a workspace from a
// package pool on entry and return it on exit, so repeated reductions
// (the planner's fixed-point iteration, every plan repair) reuse the
// same arenas instead of reallocating them per call. Returned masks are
// always freshly allocated — they escape into Plans and outlive the
// call — only the internal state is pooled.
type workspace struct {
	th  TwoHop
	ind bigraph.Inducer

	deg       []int
	queue     []int
	cand      []int32    // kcore: candidates, then survivors
	cdeg      []int32    // kcore: live degree, valid at candidates only
	dead      []int32    // kcore: peel stack
	live      bitset.Set // kcore: the live candidates
	affected  []int
	admitted  []int
	buf       []int
	queued    []bool
	swept     []bool
	suspected []bool
	plaus     []int8
}

var wsPool = sync.Pool{New: func() any { return new(workspace) }}

func getWS() *workspace  { return wsPool.Get().(*workspace) }
func putWS(w *workspace) { wsPool.Put(w) }

// grownInts returns buf resized to length n; contents are undefined.
func grownInts(buf []int, n int) []int {
	if cap(buf) < n {
		return make([]int, n)
	}
	return buf[:n]
}

// clearedBools returns buf resized to length n with every entry false.
func clearedBools(buf []bool, n int) []bool {
	if cap(buf) < n {
		return make([]bool, n)
	}
	buf = buf[:n]
	for i := range buf {
		buf[i] = false
	}
	return buf
}

// clearedInt8 returns buf resized to length n with every entry zero.
func clearedInt8(buf []int8, n int) []int8 {
	if cap(buf) < n {
		return make([]int8, n)
	}
	buf = buf[:n]
	for i := range buf {
		buf[i] = 0
	}
	return buf
}
