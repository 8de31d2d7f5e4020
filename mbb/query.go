package mbb

import (
	"repro/internal/baseline"
	"repro/internal/bigraph"
	"repro/internal/core"
)

// query is the normalized form of the Options fields that select the
// query class: k == 1 is the classic single-maximum solve, k > 1 the
// top-k list, minSize > 0 the size-constrained floor. Validate has
// already rejected negatives by the time a query is built.
type query struct {
	k       int
	minSize int
}

// queryOf normalizes opt's query fields (0 means default).
func queryOf(opt *Options) query {
	q := query{k: opt.TopK, minSize: opt.MinSize}
	if q.k < 1 {
		q.k = 1
	}
	return q
}

// floor is the incumbent seed implied by the size constraint: solvers
// prune at sizes ≤ floor, so only bicliques of at least minSize per side
// can be found. 0 when unconstrained.
func (q query) floor() int {
	if q.minSize > 0 {
		return q.minSize - 1
	}
	return 0
}

// infeasible reports whether the size constraint exceeds a side of the
// graph — no biclique of minSize per side can exist, by counting alone.
func (q query) infeasible(g *Graph) bool {
	return q.minSize > g.NL() || q.minSize > g.NR()
}

// refuse is the plan-time answer to an infeasible query: an empty
// biclique with Exact == true (the counting argument is the proof) and
// the trivial upper bound as the certificate. No solver runs.
func (q query) refuse(g *Graph, name string) Result {
	res := Result{
		Exact:     true,
		Solver:    name,
		Algorithm: algorithmOf(name),
	}
	res.Stats.UpperBound = minInt(g.NL(), g.NR())
	if q.k > 1 {
		res.Bicliques = []Biclique{}
	}
	return res
}

// topKTail upgrades a finished single-incumbent solve to the top-k list:
// one balanced witness for each of the k largest distinct balanced sizes
// above the query floor. The exact sizes below the maximum are the
// min-sides of maximal bicliques (trimming a maximal biclique to its
// min-side is exactly the locally-maximal balanced biclique at that
// size), so the tail is a bound-pruned maximal-biclique enumeration; the
// solver's own witness seeds the heap, so its exact maximum anchors the
// list.
//
// The enumeration runs in sweeps at descending floors (tailSweep). When
// the scalar solve is exact with maximum s*, the floors are s*−2, s*−3,
// s*−5, s*−9, … (the gap doubles each round), never below the query
// floor, and the tail stops once the heap holds k distinct sizes or after
// the sweep at the query floor. This is exact: a completed sweep at f
// offers every maximal biclique with min-side > f (the argument MinSize
// floors already rely on), and every size the heap retains exceeds f, so
// a full heap holds the k largest sizes. A high floor peels the graph
// down to a small dense core, so the common case — the k-th size sits
// just below s* — never enumerates the sparse remainder. An inexact
// scalar solve gives no s* to descend from and sweeps once, at the query
// floor.
//
// The tail shares ex — its budget, cancellation and node accounting, so
// the list's Stats.Nodes reports every node ex spent, tail included. A
// budget cut mid-tail marks res.Stats.TimedOut: the list is then
// best-effort like any other inexact answer. Early high-floor sweeps can
// spend such a budget proving high sizes absent, so a cut list may hold
// fewer sizes than a single sweep at the query floor would have found.
func topKTail(ex *core.Exec, g *Graph, q query, res *core.Result) []Biclique {
	heap := core.NewTopK(q.k)
	floor := q.floor()
	top := res.Biclique.Balanced()
	if top.Size() > floor {
		heap.Offer(top)
	}
	for _, f := range tailFloors(top.Size(), floor, !res.Stats.TimedOut) {
		if ex.ShouldStop() {
			break
		}
		tailSweep(ex, g, f, heap)
		// Bound() is positive exactly when the heap holds k sizes.
		if heap.Bound() > 0 || ex.Stopped() {
			break
		}
	}
	if ex.Stopped() {
		res.Stats.TimedOut = true
	}
	res.Stats.Nodes = ex.Nodes()
	return heap.List()
}

// tailFloors returns the floors topKTail sweeps at, highest first, when
// none of them fills the heap: top−2, top−3, top−5, top−9, … while above
// the query floor, then the query floor itself. Without an exact maximum
// top there is nothing to descend from, and the only floor is the
// query's.
func tailFloors(top, floor int, exact bool) []int {
	var fs []int
	if exact {
		for gap := 2; top-gap > floor; gap = 2*gap - 1 {
			fs = append(fs, top-gap)
		}
	}
	return append(fs, floor)
}

// tailSweep offers heap every maximal biclique of g whose min-side
// exceeds f and the heap's bound: g is peeled at f (optimum-preserving
// for every size above f) through the plan build's front end — the
// (f+1)-core induced from its keep list, then the reduceFixedPoint
// iteration — split into components largest first, and each
// component is enumerated against max(heap.Bound(), f), so once the heap
// holds k sizes, whole components and subtrees that cannot beat its
// smallest size are skipped. A component of at most denseAutoLimit cells
// — the planner's dense/sparse bound — runs the word-parallel kernel,
// a larger one the slice kernel.
func tailSweep(ex *core.Exec, g *Graph, f int, heap *core.TopK) {
	red := reduceFixedPoint(ex, coreReduction(g, f+1), f)
	bound := func() int {
		if b := heap.Bound(); b > f {
			return b
		}
		return f
	}
	for _, j := range collectJobs(red, f) {
		if ex.ShouldStop() {
			return
		}
		// Components too small to beat the current bound cannot add or
		// improve a retained size. (collectJobs already cut those at or
		// below f.)
		if b := heap.Bound(); b > 0 && (j.nl <= b || j.nr <= b) {
			continue
		}
		sub, toOrig := red.g.Induced(j.ids)
		bigraph.ComposeMap(toOrig, red.newToOld)
		offer := func(A, B []int) bool {
			heap.Offer(bigraph.Biclique{A: A, B: B}.Remap(toOrig))
			return true
		}
		if int64(j.nl)*int64(j.nr) <= denseAutoLimit {
			baseline.EnumerateMaximalWords(ex, sub, bound, offer)
		} else {
			baseline.EnumerateMaximalPruned(ex, sub, bound, offer)
		}
	}
}

// finishResult assembles the public Result from a solver outcome under a
// query: the top-k list is attached (k > 1 only — the k ≤ 1 fast path
// must not allocate it), sub-floor answers are filtered to the empty
// proof, and the certified upper bound and gap are finalized.
func finishResult(g *Graph, q query, name string, planned bool, res core.Result, exact bool, list []Biclique) Result {
	out := Result{
		Biclique:  res.Biclique,
		Exact:     exact,
		Solver:    name,
		Algorithm: algorithmOf(name),
		Reduced:   planned,
		Stats:     res.Stats,
	}
	// The tail can out-search a budget-cut solver; keep the scalar answer
	// in agreement with the head of the list.
	if len(list) > 0 && list[0].Size() > out.Biclique.Size() {
		out.Biclique = list[0]
	}
	if q.minSize > 0 && out.Biclique.Size() < q.minSize {
		// Below the floor is not an answer. With Exact == true the
		// completed floor-seeded search proves no qualifying biclique
		// exists; without it, the search simply found none in budget.
		out.Biclique = Biclique{}
	}
	if q.k > 1 {
		if list == nil {
			list = []Biclique{}
		}
		out.Bicliques = list
	}

	// Certified upper bound on the maximum balanced size, and the gap it
	// leaves against the answer. For an exact solve the optimum itself is
	// the bound — except under a floor, where a completed search that
	// found nothing qualifying proves optimum ≤ MinSize−1. For an
	// inexact solve the planner's surviving per-component bound is used
	// when present, the whole graph's trivial bound otherwise.
	trivial := minInt(g.NL(), g.NR())
	size := out.Biclique.Size()
	ub := res.Stats.UpperBound
	if exact {
		ub = size
		if q.minSize > 0 && size == 0 {
			ub = minInt(q.minSize-1, trivial)
		}
	} else {
		if ub == 0 || ub > trivial {
			ub = trivial
		}
		if ub < size {
			ub = size
		}
	}
	out.Stats.UpperBound = ub
	if !exact {
		out.Gap = ub - size
	}
	return out
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
