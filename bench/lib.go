package main

// The library workloads call the solver directly, without the daemon:
// dense exercises the paper's dense branch-and-bound, sparse its
// reduce-and-conquer pipeline on large sparse stand-ins.

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"time"

	"repro/internal/workload"
	"repro/mbb"
)

// denseDensities are the dense instances' edge densities, the paper's
// dense regime (Table 4), where the planner peels nothing and
// branch-and-bound in dense+core does nearly all the work.
var denseDensities = []float64{0.80, 0.85, 0.90, 0.95}

// denseSide is the side size of every dense instance. At 40×40 a pass
// over 1000 instances takes 3.5–5.5 s on one core of the reference
// machine, so a run makes the several passes libLoop takes each
// instance's best of; at 56×56 a pass of 200 takes 25 s and varies by
// more than the bound.
const denseSide = 40

// sparseSuite are Table 5 stand-ins whose solve time is mostly the
// planner's. edit-frwiktionary is left out: the planner leaves it one
// component whose search takes 44–68 ms depending on the seed, which
// alone moved the suite's time by ±5% across seeds.
var sparseSuite = []string{
	"jester", "discogs-style", "github", "bookcrossing-full-rating",
	"actor-movie", "stackexchange-stackoverflow",
}

// sparseSearch is the search-bound stand-in behind sparse.search_s. Its
// cost depends on the seed: on some seeds the planted biclique and the
// quasi-dense block share a component and the search visits ~600k
// nodes, on others it visits a few thousand — too bimodal for an
// end-to-end metric.
const sparseSearch = "discogs-affiliation"

// subSeed derives the generator seed of input i from the run's seed.
func subSeed(seed int64, i int) int64 { return seed*1_000_003 + int64(i) }

// denseInputs returns perDensity instances per density, the densities
// interleaved so that any prefix is a balanced mix.
func denseInputs(seed int64, perDensity int) []*mbb.Graph {
	out := make([]*mbb.Graph, perDensity*len(denseDensities))
	for i := range out {
		out[i] = workload.Dense(denseSide, denseSide, denseDensities[i%len(denseDensities)], subSeed(seed, i))
	}
	return out
}

// standIn generates the named Table 5 stand-in at maxVerts vertices.
func standIn(name string, maxVerts int, seed int64) (*mbb.Graph, workload.Dataset) {
	d, ok := workload.ByName(name)
	if !ok {
		panic("bench: unknown dataset " + name)
	}
	return d.Generate(maxVerts, seed), d
}

// libResult is one library solve as a caller without its own plan
// cache makes it: PlanContext, then Plan.SolveContext — the answer
// SolveContext gives with the planner on, with both halves timed.
type libResult struct {
	res         mbb.Result
	plan, solve time.Duration
}

func libSolve(r *run, g *mbb.Graph, opt *mbb.Options) (libResult, error) {
	op := r.tr.op()
	t0 := time.Now()
	p, err := mbb.PlanContext(context.Background(), g)
	if err != nil {
		return libResult{}, err
	}
	t1 := time.Now()
	res, err := p.SolveContext(context.Background(), opt)
	t2 := time.Now()
	if root := r.tr.add("lib.solve", op, 0, t0, t2); root != 0 {
		r.tr.add("mbb.PlanContext", op, root, t0, t1)
		r.tr.add("mbb.Plan.SolveContext", op, root, t1, t2)
	}
	return libResult{res: res, plan: t1.Sub(t0), solve: t2.Sub(t1)}, err
}

// minPasses is the fewest passes libLoop makes, so that every instance's
// time is a best of several.
const minPasses = 3

// libLoop solves every graph once per pass, back to back, for as many
// whole passes as fit in budget (at least minPasses). An instance's time
// is its best over the passes: the reference machine runs in spells of a
// few seconds at two speeds, about 45% apart, and a run's share of slow
// spells moved means over all solves by more than any bound; an
// instance's best of several passes, seconds apart, is its time in a
// fast spell. The end-to-end metrics are statistics over the instances'
// best times, the tail the tailCap-th percentile capped by the ten
// samples beyond it, or the slowest instance when there are too few for
// one. libLoop records those and the mbb, core and dense per-layer
// numbers, and returns the first pass's results for the caller's checks;
// later passes must reproduce their sizes.
func libLoop(r *run, graphs []*mbb.Graph, opt *mbb.Options, budget time.Duration, tailCap float64) ([]mbb.Result, error) {
	first := make([]mbb.Result, len(graphs))
	best := make([]libResult, len(graphs)) // per instance, the pass with the fastest plan + solve
	bestPlan := make([]float64, len(graphs))
	var planMs, searchMs []float64
	start := time.Now()
	passes, last := 0, time.Duration(0)
	for passes < minPasses || time.Since(start)+last < budget {
		ps := time.Now()
		for i, g := range graphs {
			out, err := libSolve(r, g, opt)
			r.attempts.Add(1)
			if err != nil {
				return nil, fmt.Errorf("solve instance %d: %w", i, err)
			}
			if passes == 0 {
				first[i], best[i], bestPlan[i] = out.res, out, ms(out.plan)
			} else if out.res.Biclique.Size() != first[i].Biclique.Size() {
				r.fail("instance %d: size %d, first pass found %d", i, out.res.Biclique.Size(), first[i].Biclique.Size())
			}
			if out.plan+out.solve < best[i].plan+best[i].solve {
				best[i] = out
			}
			bestPlan[i] = min(bestPlan[i], ms(out.plan))
			planMs = append(planMs, ms(out.plan))
			searchMs = append(searchMs, ms(out.solve))
		}
		last = time.Since(ps)
		passes++
	}
	fmt.Fprintf(r.log, "%d passes of %d instances, last pass %.3fs\n", passes, len(graphs), last.Seconds())

	bestMs := make([]float64, len(best))
	var searchNodeTime time.Duration
	var nodes int64
	for i, b := range best {
		bestMs[i] = ms(b.plan + b.solve)
		if n := b.res.Stats.Nodes; n > 0 {
			nodes += n
			searchNodeTime += b.solve
		}
	}
	r.set("solve_mean_ms", mean(bestMs))
	if p := tailPercentile(len(bestMs), tailCap); p > 0 {
		r.set("solve_tail_ms", percentile(bestMs, p))
	} else {
		r.set("solve_tail_ms", slices.Max(bestMs))
	}
	r.set("solve_p50_ms", median(bestMs))
	r.set("update_p50_ms", median(bestPlan))
	r.set("mbb.plan_build_ms", mean(planMs))
	r.set("mbb.plan_solve_ms", mean(searchMs))
	r.set("core.nodes", float64(nodes)/float64(len(best)))
	if nodes > 0 {
		r.set("core.ns_per_node", float64(searchNodeTime)/float64(nodes))
	}
	allocs, bytes, err := solveAllocs(graphs[:min(len(graphs), allocSample)], opt)
	if err != nil {
		return nil, err
	}
	r.set("core.allocs_per_solve", allocs)
	r.set("core.bytes_per_solve", bytes)
	var poly, red, peeled, comps, gap float64
	for i, res := range first {
		poly += float64(res.Stats.PolyCases)
		red += float64(res.Stats.Reductions)
		peeled += float64(res.Stats.Peeled) / float64(graphs[i].NumVertices())
		comps += float64(res.Stats.Components)
		gap += float64(res.Biclique.Size() - res.Stats.SeedTau)
	}
	n := float64(len(first))
	r.set("dense.poly_cases", poly/n)
	r.set("dense.reductions", red/n)
	r.set("mbb.peeled_frac", peeled/n)
	r.set("mbb.components", comps/n)
	r.set("mbb.tau_gap", gap/n)

	for i, res := range first {
		size := res.Biclique.Size()
		r.check(res.Exact && validWitness(graphs[i], res.Biclique, size),
			"instance %d: inexact or invalid witness of size %d", i, size)
	}
	return first, nil
}

// allocSample is how many of a library workload's graphs solveAllocs
// counts, after the timed loop: 40 dense instances are ten of each
// density.
const allocSample = 40

// solveAllocs returns the mean heap allocations and bytes of one
// Plan.SolveContext call over graphs. Each graph is planned first, and
// the counters are read right around the solve, so neither the planner
// nor the benchmark's own bookkeeping is counted.
func solveAllocs(graphs []*mbb.Graph, opt *mbb.Options) (allocs, bytes float64, err error) {
	var before, after runtime.MemStats
	for _, g := range graphs {
		p, err := mbb.PlanContext(context.Background(), g)
		if err != nil {
			return 0, 0, err
		}
		runtime.ReadMemStats(&before)
		_, err = p.SolveContext(context.Background(), opt)
		runtime.ReadMemStats(&after)
		if err != nil {
			return 0, 0, err
		}
		allocs += float64(after.Mallocs - before.Mallocs)
		bytes += float64(after.TotalAlloc - before.TotalAlloc)
	}
	n := float64(len(graphs))
	return allocs / n, bytes / n, nil
}

// crossCheck compares a size with an independent solve of g by the
// sparse framework without the planner.
func crossCheck(r *run, g *mbb.Graph, size int, what string) {
	res, err := mbb.SolveContext(context.Background(), g, &mbb.Options{Solver: "hbvMBB", Reduce: mbb.ReduceOff, Workers: 2})
	r.check(err == nil && res.Exact && res.Biclique.Size() == size,
		"%s: size %d, hbvMBB without the planner found %d (err %v)", what, size, res.Biclique.Size(), err)
}

func runDense(r *run) error {
	// The solves are sequential. With a second processor the runtime's
	// background work and thread migration made pass times wander by
	// ±15% on the reference machine; on one they repeat within ±4%.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	perDensity := 250
	if r.short {
		perDensity = 5
	}
	var graphs []*mbb.Graph
	opt := &mbb.Options{Workers: 1}
	teardown, err := r.setUp(func() (func(), error) {
		graphs = denseInputs(r.seed, perDensity)
		for _, g := range graphs[:5] { // untimed warm-up
			if _, err := mbb.SolveContext(context.Background(), g, opt); err != nil {
				return nil, err
			}
		}
		return func() {}, nil
	})
	if err != nil {
		return err
	}
	defer teardown()
	first, err := libLoop(r, graphs, opt, r.budget, 95)
	if err != nil {
		return err
	}
	if r.useGolden() {
		gold, err := loadGolden()
		if err != nil {
			return err
		}
		for i, res := range first {
			r.check(i < len(gold.Dense) && res.Biclique.Size() == gold.Dense[i],
				"dense instance %d: size %d differs from golden.json", i, res.Biclique.Size())
		}
		return nil
	}
	for i := 0; i < len(first); i += 10 {
		crossCheck(r, graphs[i], first[i].Biclique.Size(), fmt.Sprintf("dense instance %d", i))
	}
	return nil
}

func runSparse(r *run) error {
	maxVerts, searchSolves := 100_000, 3
	if r.short {
		maxVerts, searchSolves = 3_000, 1
	}
	var graphs []*mbb.Graph
	var sets []workload.Dataset
	var search *mbb.Graph
	teardown, err := r.setUp(func() (func(), error) {
		graphs, sets = nil, nil
		for i, name := range sparseSuite {
			g, d := standIn(name, maxVerts, subSeed(r.seed, i))
			graphs, sets = append(graphs, g), append(sets, d)
		}
		search, _ = standIn(sparseSearch, maxVerts, subSeed(r.seed, len(sparseSuite)))
		return func() {}, nil
	})
	if err != nil {
		return err
	}
	defer teardown()
	opt := &mbb.Options{Workers: 2}

	start := time.Now()
	var searchSecs []float64
	for i := 0; i < searchSolves; i++ {
		out, err := libSolve(r, search, opt)
		r.attempts.Add(1)
		if err != nil {
			return fmt.Errorf("solve %s: %w", sparseSearch, err)
		}
		r.check(out.res.Exact && validWitness(search, out.res.Biclique, out.res.Biclique.Size()),
			"%s: inexact or invalid witness", sparseSearch)
		searchSecs = append(searchSecs, (out.plan + out.solve).Seconds())
	}
	r.set("sparse.search_s", median(searchSecs))

	first, err := libLoop(r, graphs, opt, r.budget-time.Since(start), 90)
	if err != nil {
		return err
	}
	gold, err := loadGolden()
	if err != nil {
		return err
	}
	for i, res := range first {
		size := res.Biclique.Size()
		r.check(size >= min(sets[i].Optimum, graphs[i].NL(), graphs[i].NR()),
			"%s: size %d is below the planted %d", sparseSuite[i], size, sets[i].Optimum)
		if r.useGolden() {
			r.check(size == gold.Sparse[sparseSuite[i]], "%s: size %d differs from golden.json", sparseSuite[i], size)
		} else {
			crossCheck(r, graphs[i], size, sparseSuite[i])
		}
	}
	return nil
}
