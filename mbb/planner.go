package mbb

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bigraph"
	"repro/internal/core"
	"repro/internal/decomp"
	"repro/internal/heur"
)

// Reduce selects the planner's preprocessing mode (see Options.Reduce).
type Reduce int

const (
	// ReduceAuto (the default) runs the planner for the "auto" solver and
	// skips it when a solver was named explicitly.
	ReduceAuto Reduce = iota
	// ReduceOn runs the planner for any exact solver.
	ReduceOn
	// ReduceOff disables the planner.
	ReduceOff
)

// String renders the mode the way the -reduce command-line flag spells it.
func (r Reduce) String() string {
	switch r {
	case ReduceOn:
		return "on"
	case ReduceOff:
		return "off"
	}
	return "auto"
}

// ParseReduce parses a -reduce flag value: "auto", "on" (or "true"), "off"
// (or "false").
func ParseReduce(s string) (Reduce, bool) {
	switch s {
	case "auto", "":
		return ReduceAuto, true
	case "on", "true", "1":
		return ReduceOn, true
	case "off", "false", "0":
		return ReduceOff, true
	}
	return ReduceAuto, false
}

// planActive reports whether the planner should run: always when forced
// on, never when forced off or for heuristic solvers (the planner's
// component pruning assumes exact sub-solves), and for ReduceAuto exactly
// when the caller asked for the automatic solver.
func planActive(opt *Options, isAuto, heuristic bool) bool {
	if heuristic {
		return false
	}
	switch opt.Reduce {
	case ReduceOn:
		return true
	case ReduceOff:
		return false
	}
	return isAuto
}

// reduction is a peeled graph in its own id space, the mapping back to
// the original ids, and how many vertices the peeling removed.
type reduction struct {
	g        *Graph
	newToOld []int
	peeled   int
}

// identity is the reduction that peels nothing.
func identity(g *Graph) reduction {
	return reduction{g: g, newToOld: bigraph.IdentityMap(g.NumVertices())}
}

// coreReduction is the first reduction of a plan build and of a top-k
// sweep: g's k-core, induced straight from its keep list
// (decomp.KCoreList). The peel and the induction cost what can survive,
// not n: no mask, identity map or id table as long as g is built. When
// nothing peels, the keep list is the identity map and g itself stands.
func coreReduction(g *Graph, k int) reduction {
	keep := decomp.KCoreList(g, k)
	if len(keep) == g.NumVertices() {
		return reduction{g: g, newToOld: keep}
	}
	sub, newToOld := g.Induced(keep)
	return reduction{g: sub, newToOld: newToOld, peeled: g.NumVertices() - len(keep)}
}

// applyMask induces red.g on mask and composes the id mapping, keeping
// the peeled count.
func applyMask(red reduction, mask []bool) reduction {
	kept := 0
	for _, ok := range mask {
		if ok {
			kept++
		}
	}
	if kept == red.g.NumVertices() {
		return red
	}
	sub, n2 := red.g.InducedByMask(mask)
	bigraph.ComposeMap(n2, red.newToOld)
	return reduction{g: sub, newToOld: n2, peeled: red.peeled + red.g.NumVertices() - kept}
}

// reduceFixedPoint applies the optimum-preserving reduction of
// decomp.ReduceMask — the (tau+1)-core intersected with the 2·tau+1
// bicore threshold — iterating until no vertex is removed or ex wants to
// stop (stopping early just leaves a larger, still-equivalent graph).
// Any balanced biclique of per-side size strictly greater than tau
// survives intact, so solving the result (plus a size-tau witness in
// hand) solves the original graph.
func reduceFixedPoint(ex *core.Exec, red reduction, tau int) reduction {
	for red.g.NumVertices() > 0 && !ex.ShouldStop() {
		next := applyMask(red, decomp.ReduceMask(red.g, tau))
		if next.peeled == red.peeled {
			break
		}
		red = next
	}
	return red
}

// planJob is one surviving component of the reduced graph, with its
// per-side vertex counts.
type planJob struct {
	ids    []int
	nl, nr int
}

// compCost is the profile one plan accumulates for one component across
// its solves: the branch-and-bound nodes and wall time observed the last
// time the component was actually searched (pruned dispatches leave the
// profile untouched). A cached Plan backs many solves, so from the second
// solve on the dispatcher can hand out components by how expensive they
// really were rather than by how big they look. Atomics because
// concurrent component workers — and concurrent solves sharing one plan —
// record profiles without coordination; the profile is an advisory
// scheduling hint, not logical plan state, so lost updates are harmless.
type compCost struct {
	nodes atomic.Int64
	nanos atomic.Int64
}

// costlier ranks job i before job j in steal order: components with a
// higher observed node count first (the profile from earlier solves on
// this plan), wall time as the tiebreak, and for unprofiled (cold)
// components the static estimate — more vertices first, then collectJobs
// order. On a cold plan every profile is zero, so the dispatch order is
// exactly the old static largest-first order.
func (p *Plan) costlier(i, j int) bool {
	if ni, nj := p.costs[i].nodes.Load(), p.costs[j].nodes.Load(); ni != nj {
		return ni > nj
	}
	if ti, tj := p.costs[i].nanos.Load(), p.costs[j].nanos.Load(); ti != tj {
		return ti > tj
	}
	if li, lj := len(p.jobs[i].ids), len(p.jobs[j].ids); li != lj {
		return li > lj
	}
	return i < j
}

// takeCostliest removes the costliest job index from pending and returns
// it with the shrunk slice. Linear scan: component counts are small and
// the caller holds a lock anyway.
func (p *Plan) takeCostliest(pending []int) (int, []int) {
	best := 0
	for k := 1; k < len(pending); k++ {
		if p.costlier(pending[k], pending[best]) {
			best = k
		}
	}
	idx := pending[best]
	pending[best] = pending[len(pending)-1]
	return idx, pending[:len(pending)-1]
}

// computePlan runs the planner's preprocessing phase — heuristic seed,
// optimum-preserving reduction, component decomposition — and packages
// the outcome as an immutable Plan. When ex is cut short mid-way the
// reduction is simply larger (still equivalent); only when the component
// collection itself had to be skipped is the plan marked partial, because
// then an empty job list no longer proves the seed optimal.
//
// floor is the size-constrained query floor (Options.MinSize − 1, 0 for
// unconstrained queries): the peel runs at τ = max(greedy seed, floor),
// because a query that only accepts bicliques larger than floor lets the
// reduction discard everything at or below it even when the heuristic
// found less. Plans built with a nonzero floor answer only queries with
// at least that floor; cacheable plans (PlanContext) are built at 0 so
// they stay query-independent.
func computePlan(ex *core.Exec, g *Graph, floor int) *Plan {
	if ex.ShouldStop() {
		return &Plan{g: g, red: identity(g), partial: true}
	}

	// Seed τ with the max-degree greedy (Algorithm 5's first pass), apply
	// the cheap core-only reduction, and try the max-core greedy on the
	// survivor — core numbers are only meaningful after the fringe is
	// gone. Only then run the heavier bicore fixed point, on the smallest
	// graph and the best τ the heuristics could buy.
	seed := heur.Greedy(g, nil, 8).Balanced()
	tau := seed.Size()
	if floor > tau {
		tau = floor
	}
	ex.OfferBest(tau)

	var red reduction
	if ex.ShouldStop() {
		red = identity(g)
	} else {
		red = coreReduction(g, tau+1)
		if red.g.NumVertices() > 0 {
			bc := heur.Greedy(red.g, decomp.Cores(red.g).Core, 8).Balanced()
			if bc.Size() > tau {
				seed = bc.Remap(red.newToOld)
				tau = bc.Size()
				ex.OfferBest(tau)
				red = applyMask(red, decomp.KCoreMask(red.g, tau+1))
			}
		}
		red = reduceFixedPoint(ex, red, tau)
	}

	var jobs []planJob
	partial := false
	if red.g.NumVertices() > 0 {
		if ex.ShouldStop() {
			partial = true
		} else {
			jobs = collectJobs(red, tau)
		}
	}
	return &Plan{g: g, seed: seed, tau: tau, red: red, jobs: jobs, costs: make([]compCost, len(jobs)), partial: partial}
}

// collectJobs splits the reduced graph into its connected components and
// keeps only those large enough to beat τ on both sides, largest (by
// vertex count, then smallest id) first so the long solves start as
// early as possible. Both the planner and incremental plan maintenance
// use it — component structure must be recomputed whenever the reduced
// graph's edge set changes by insertion, because an added edge can merge
// two components into one solve unit.
func collectJobs(red reduction, tau int) []planJob {
	var jobs []planJob
	for _, comp := range red.g.Components() {
		nl, nr := 0, 0
		for _, v := range comp {
			if red.g.IsLeft(v) {
				nl++
			} else {
				nr++
			}
		}
		if nl > tau && nr > tau {
			jobs = append(jobs, planJob{ids: comp, nl: nl, nr: nr})
		}
	}
	sort.SliceStable(jobs, func(i, j int) bool {
		return len(jobs[i].ids) > len(jobs[j].ids)
	})
	return jobs
}

// solveOn runs the plan's solve phase on ex: the incumbent is seeded with
// the cached τ, the surviving components are solved concurrently —
// largest first, as workers sharing the execution context's budget and
// incumbent — and the winner is mapped back to the original ids. spec is
// the solver to run per component; when isAuto is true the dense/sparse
// choice is re-made per component from its shape. It is safe to call
// concurrently: the plan is read-only and all mutable state is local.
func (p *Plan) solveOn(ex *core.Exec, spec SolverSpec, isAuto bool, opt *Options) (core.Result, error) {
	ex.OfferBest(p.tau)

	// When no component survives, the reduction closed the graph (or no
	// surviving component can beat τ) and the heuristic witness is
	// optimal — the planner's analogue of the sparse framework's step-1
	// termination. Stats.Step stays untouched: it reports Algorithm-4
	// steps and would mislabel dense/baseline solver runs; SeedTau,
	// Peeled and Components carry the planner's own story.
	pstats := core.Stats{SeedTau: p.tau, Peeled: int64(p.red.peeled), Components: len(p.jobs), Repairs: p.repairs}
	ex.AddStats(&pstats)

	workers := opt.Workers
	if workers > len(p.jobs) {
		workers = len(p.jobs)
	}
	// Options.Workers is a total goroutine budget: when the planner fans
	// out over components, it is split across them so the per-component
	// inner pipelines never multiply to Workers² goroutines.
	copt := *opt
	if workers > 1 {
		copt.Workers = opt.Workers / workers
	}

	var (
		mu       sync.Mutex
		best     = p.seed
		outcome  core.Stats
		firstErr error
	)
	// completed[ji] records that job ji needs no further search: either
	// its solver ran to completion, or the incumbent already covered it
	// (min(nl, nr) ≤ incumbent ≤ final best is a valid completion
	// certificate). Each index is handed to exactly one worker, so the
	// per-element writes need no lock. Uncompleted jobs are what keeps
	// the certified upper bound above the incumbent after a budget cut.
	completed := make([]bool, len(p.jobs))
	solveComp := func(ji int) {
		j := p.jobs[ji]
		if ex.ShouldStop() {
			return
		}
		// Re-check against the live incumbent: an earlier (larger)
		// component may have raised it past what this one can offer.
		if incumbent := ex.Best(); j.nl <= incumbent || j.nr <= incumbent {
			completed[ji] = true
			return
		}
		sub, toOrig := p.red.g.Induced(j.ids)
		bigraph.ComposeMap(toOrig, p.red.newToOld)
		rspec := spec
		if isAuto {
			rspec, _ = Lookup(autoSolverName(sub))
		}
		start := time.Now()
		res, err := rspec.Run(ex, sub, &copt)
		mu.Lock()
		defer mu.Unlock()
		if err != nil {
			if firstErr == nil {
				firstErr = err
				// Abort the remaining components: the whole solve fails,
				// so any further search is wasted work.
				ex.Stop()
			}
			return
		}
		// Record the observed cost so later solves on this (cached) plan
		// dispatch the genuinely expensive components first.
		p.costs[ji].nodes.Store(res.Stats.Nodes)
		p.costs[ji].nanos.Store(time.Since(start).Nanoseconds())
		completed[ji] = !res.Stats.TimedOut
		outcome.MergeOutcome(&res.Stats)
		if bc := res.Biclique.Remap(toOrig).Balanced(); bc.Size() > best.Size() {
			best = bc
			ex.OfferBest(bc.Size())
		}
	}
	// Work-stealing dispatch: instead of pre-assigning components, every
	// worker pulls the costliest remaining one from a shared queue when it
	// becomes free — so when a large component fizzles early (the incumbent
	// from a sibling already covers it), its worker immediately steals the
	// next expensive component rather than idling behind a static schedule.
	// The sequential path drains the same queue, so its visit order matches
	// the parallel steal order (and, on a cold plan, the old static
	// largest-first order exactly).
	var qmu sync.Mutex
	pending := make([]int, len(p.jobs))
	for i := range pending {
		pending[i] = i
	}
	nextJob := func() (int, bool) {
		qmu.Lock()
		defer qmu.Unlock()
		if len(pending) == 0 {
			return 0, false
		}
		var idx int
		idx, pending = p.takeCostliest(pending)
		return idx, true
	}
	if workers <= 1 {
		for ji, ok := nextJob(); ok; ji, ok = nextJob() {
			solveComp(ji)
		}
	} else {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					ji, ok := nextJob()
					if !ok {
						return
					}
					solveComp(ji)
				}
			}()
		}
		wg.Wait()
	}
	if firstErr != nil {
		return core.Result{}, firstErr
	}

	stats := ex.Snapshot()
	stats.MergeOutcome(&outcome)
	if stats.HeurGlobalSize < p.tau {
		stats.HeurGlobalSize = p.tau
	}
	if ex.Stopped() || p.partial {
		// A partial plan skipped the component decomposition, so an empty
		// job list proves nothing: the result is best-effort, not exact.
		stats.TimedOut = true
	}
	// Certified upper bound on the maximum balanced size: the incumbent,
	// raised by min(nl, nr) of every component whose search did not
	// complete (those are the only places a larger biclique could hide).
	// A partial plan has no component list to certify with, so the whole
	// graph's trivial bound stands in.
	ub := best.Size()
	if b := ex.Best(); b > ub {
		ub = b // a floor-seeded incumbent can exceed the witness
	}
	for ji := range p.jobs {
		if !completed[ji] {
			if m := minInt(p.jobs[ji].nl, p.jobs[ji].nr); m > ub {
				ub = m
			}
		}
	}
	if p.partial {
		if m := minInt(p.g.NL(), p.g.NR()); m > ub {
			ub = m
		}
	}
	stats.UpperBound = ub
	return core.Result{Biclique: best, Stats: stats}, nil
}

// planSolve is the reduce-and-conquer planner: preprocessing
// (computePlan) followed by the solve phase (solveOn) on the same
// execution context. SolveContext takes this path when Options.Reduce
// enables the planner; callers that want to amortize the preprocessing
// across many solves build the Plan once with PlanContext and call
// Plan.SolveContext per query.
func planSolve(ex *core.Exec, g *Graph, spec SolverSpec, isAuto bool, opt *Options) (core.Result, error) {
	// Already cancelled or past the deadline: return before paying for
	// the (unbudgeted) seed heuristic.
	if ex.ShouldStop() {
		stats := ex.Snapshot()
		stats.TimedOut = true
		stats.UpperBound = minInt(g.NL(), g.NR())
		return core.Result{Stats: stats}, nil
	}
	floor := opt.MinSize - 1
	if floor < 0 {
		floor = 0
	}
	return computePlan(ex, g, floor).solveOn(ex, spec, isAuto, opt)
}
