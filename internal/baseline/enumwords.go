package baseline

import (
	"math/bits"
	"sort"

	"repro/internal/bigraph"
	"repro/internal/core"
)

// EnumerateMaximalWords is EnumerateMaximalPruned on word-parallel
// adjacency rows, in the manner of the bit-parallel set kernels of San
// Segundo et al. (Computers & OR 2011): every right vertex holds its left
// neighbourhood as a []uint64 row, and the left candidate set L is a row
// of the same width. Extending R by x intersects L with x's row by AND,
// |L2| is a popcount, and the maximality and absorb tests ask whether
// L2 lies inside a row (and whether it meets it) word by word — where
// the slice kernel binary-searches a neighbour list once per left
// candidate.
//
// The recursion, the ascending-degree P order, the Q (maximality) rule,
// the bound() call sites and the node accounting are those of
// EnumerateMaximalPruned, so both kernels report the same bicliques in
// the same order, spend the same nodes, and stop after the same report
// under a node budget (pinned by TestEnumerateWordsMatchesSlices and
// FuzzEnumerateWords). One difference in contract: A and B are reused
// between calls, so fn must copy whatever it keeps.
//
// Rows cost NR·⌈NL/64⌉ words, and every test is linear in ⌈NL/64⌉, so
// the kernel suits components whose NL·NR cell count is bounded (the
// query engine's top-k tail picks it by that rule). The per-depth
// buffers are allocated once per call, on first use of each depth, so a
// search node allocates nothing.
func EnumerateMaximalWords(ex *core.Exec, g *bigraph.Graph, bound func() int, fn func(A, B []int) bool) int {
	if g.NumEdges() == 0 {
		return 0
	}
	nl, nr := g.NL(), g.NR()
	w := (nl + 63) >> 6
	e := &wordEnumerator{
		ex: ex, bound: bound, fn: fn, nl: nl, nr: nr, w: w,
		rows: make([]uint64, nr*w),
		A:    make([]int, 0, nl),
		B:    make([]int, 0, nr),
	}
	// L: every left vertex with an edge, i.e. the union of the rows. P:
	// every right vertex with an edge, ascending degree, then id.
	L := make([]uint64, w)
	P := make([]int32, 0, nr)
	for j := 0; j < nr; j++ {
		ns := g.Neighbors(g.Right(j))
		if len(ns) == 0 {
			continue
		}
		row := e.row(int32(j))
		for _, u := range ns {
			row[u>>6] |= 1 << (uint(u) & 63)
		}
		for i, x := range row {
			L[i] |= x
		}
		P = append(P, int32(j))
	}
	sort.Slice(P, func(a, b int) bool {
		da, db := g.Deg(g.Right(int(P[a]))), g.Deg(g.Right(int(P[b])))
		if da != db {
			return da < db
		}
		return P[a] < P[b]
	})
	e.expand(0, wordSet{bits: L, lo: 0, hi: w}, nil, P, make([]int32, 0, nr))
	return e.count
}

// wordSet is a left-vertex set as a row of words; only words[lo:hi] can
// be nonzero, which keeps the tests on a small candidate set short.
type wordSet struct {
	bits   []uint64
	lo, hi int
}

// wordLevel holds the buffers one recursion depth builds for its
// children: the candidate set L2 and the lists R2, P2 and Q2. A child's
// own appends to Q stay inside Q's capacity: Q and P are disjoint sets
// of right vertices, so |Q| + |P| ≤ NR at every depth.
type wordLevel struct {
	L       []uint64
	R, P, Q []int32
}

type wordEnumerator struct {
	ex        *core.Exec
	bound     func() int // nil = unbounded
	fn        func(A, B []int) bool
	nl, nr, w int
	rows      []uint64     // row j = left neighbours of right vertex j
	levels    []*wordLevel // levels[d] is filled by expand at depth d
	A, B      []int        // report buffers
	count     int
	stopped   bool
}

func (e *wordEnumerator) row(j int32) []uint64 {
	return e.rows[int(j)*e.w : (int(j)+1)*e.w]
}

// curBound returns the live pruning bound, 0 when unbounded.
func (e *wordEnumerator) curBound() int {
	if e.bound == nil {
		return 0
	}
	return e.bound()
}

// level returns depth d's buffers, allocating them on first use.
func (e *wordEnumerator) level(d int) *wordLevel {
	for len(e.levels) <= d {
		e.levels = append(e.levels, &wordLevel{
			L: make([]uint64, e.w),
			R: make([]int32, 0, e.nr),
			P: make([]int32, 0, e.nr),
			Q: make([]int32, 0, e.nr),
		})
	}
	return e.levels[d]
}

// expand mirrors enumerator.expand step for step; see there for the
// meaning of L, R, P and Q and for why each test is sound.
func (e *wordEnumerator) expand(d int, L wordSet, R, P, Q []int32) {
	if e.stopped || !e.ex.Spend() {
		e.stopped = true
		return
	}
	lv := e.level(d)
	for len(P) > 0 && !e.stopped {
		x := P[0]
		P = P[1:]
		L2, n2 := andInto(lv.L, L, e.row(x))
		if n2 == 0 {
			Q = append(Q, x)
			continue
		}
		if b := e.curBound(); b > 0 && min2(n2, len(R)+1+len(P)) <= b {
			Q = append(Q, x)
			continue
		}
		maximal := true
		Q2 := lv.Q[:0]
		for _, q := range Q {
			all, meets := covers(e.row(q), L2)
			if all {
				maximal = false
				break
			}
			if meets {
				Q2 = append(Q2, q)
			}
		}
		if maximal {
			R2 := append(append(lv.R[:0], R...), x)
			P2 := lv.P[:0]
			for _, p := range P {
				all, meets := covers(e.row(p), L2)
				if all {
					R2 = append(R2, p)
				} else if meets {
					P2 = append(P2, p)
				}
			}
			if min2(n2, len(R2)) > e.curBound() {
				e.report(L2, R2)
			}
			if len(P2) > 0 && !e.stopped && min2(n2, len(R2)+len(P2)) > e.curBound() {
				e.expand(d+1, L2, R2, P2, Q2)
			}
		}
		Q = append(Q, x)
	}
}

// andInto writes L ∩ row into dst and returns it with its popcount.
func andInto(dst []uint64, L wordSet, row []uint64) (wordSet, int) {
	out := wordSet{bits: dst, lo: L.hi, hi: L.lo}
	n := 0
	for i := L.lo; i < L.hi; i++ {
		x := L.bits[i] & row[i]
		dst[i] = x
		if x != 0 {
			n += bits.OnesCount64(x)
			if i < out.lo {
				out.lo = i
			}
			out.hi = i + 1
		}
	}
	return out, n
}

// covers reports whether set ⊆ row (all) and whether they share a
// vertex (meets).
func covers(row []uint64, set wordSet) (all, meets bool) {
	all = true
	for i := set.lo; i < set.hi; i++ {
		s := set.bits[i]
		x := row[i] & s
		if x != s {
			all = false
			if meets {
				return
			}
		}
		if x != 0 {
			meets = true
			if !all {
				return
			}
		}
	}
	return
}

func (e *wordEnumerator) report(L wordSet, R []int32) {
	A := e.A[:0]
	for i := L.lo; i < L.hi; i++ {
		for x := L.bits[i]; x != 0; x &= x - 1 {
			A = append(A, i<<6+bits.TrailingZeros64(x))
		}
	}
	B := e.B[:0]
	for _, j := range R {
		B = append(B, e.nl+int(j))
	}
	sort.Ints(B)
	e.count++
	if !e.fn(A, B) {
		e.stopped = true
	}
}
