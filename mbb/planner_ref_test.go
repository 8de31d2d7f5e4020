package mbb

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/bigraph"
	"repro/internal/core"
	"repro/internal/decomp"
	"repro/internal/heur"
	"repro/internal/workload"
)

// refCoreMask is the k-core by definition: the vertices whose core
// number is at least k, from the bucket decomposition, which shares no
// code with the candidate peel.
func refCoreMask(g *Graph, k int) []bool {
	mask := make([]bool, g.NumVertices())
	for v, c := range decomp.Cores(g).Core {
		mask[v] = c >= k
	}
	return mask
}

// refComputePlan is computePlan with the whole-graph front end it had
// before the candidate peel: the max-degree greedy over a degree table,
// the identity reduction, and the (τ+1)-core as a mask over every vertex,
// induced by applyMask. It is the test oracle only.
func refComputePlan(ex *core.Exec, g *Graph, floor int) *Plan {
	seed := heur.Greedy(g, heur.DegreeScores(g), 8).Balanced()
	tau := max(seed.Size(), floor)
	ex.OfferBest(tau)
	red := reduction{g: g, newToOld: bigraph.IdentityMap(g.NumVertices())}
	red = applyMask(red, refCoreMask(g, tau+1))
	if red.g.NumVertices() > 0 {
		bc := heur.Greedy(red.g, decomp.Cores(red.g).Core, 8).Balanced()
		if bc.Size() > tau {
			seed = bc.Remap(red.newToOld)
			tau = bc.Size()
			ex.OfferBest(tau)
			red = applyMask(red, refCoreMask(red.g, tau+1))
		}
	}
	red = reduceFixedPoint(ex, red, tau)
	var jobs []planJob
	if red.g.NumVertices() > 0 {
		jobs = collectJobs(red, tau)
	}
	return &Plan{g: g, seed: seed, tau: tau, red: red, jobs: jobs, costs: make([]compCost, len(jobs))}
}

// sameReduction fails t unless two reductions hold the same graph, id
// map and peeled count.
func sameReduction(t *testing.T, name string, got, want reduction) {
	t.Helper()
	if got.peeled != want.peeled {
		t.Fatalf("%s: peeled %d, reference %d", name, got.peeled, want.peeled)
	}
	if !slices.Equal(got.newToOld, want.newToOld) {
		t.Fatalf("%s: newToOld %v, reference %v", name, got.newToOld, want.newToOld)
	}
	if !reflect.DeepEqual(got.g, want.g) {
		t.Fatalf("%s: reduced graph %v, reference %v", name, got.g.Edges(), want.g.Edges())
	}
}

// samePlanAsReference fails t unless computePlan and refComputePlan give
// g the same τ, seed witness, reduction and job list, at the query floors
// a plan is built at, and unless the top-k sweep front end (the
// (f+1)-core, then the fixed point) reduces g at each floor sweeps(τ)
// names as the sweep's old identity-start fixed point did.
func samePlanAsReference(t *testing.T, name string, g *Graph, sweeps func(tau int) []int) {
	t.Helper()
	for _, floor := range []int{0, 2} {
		got := computePlan(core.NewExec(nil, core.Limits{}), g, floor)
		want := refComputePlan(core.NewExec(nil, core.Limits{}), g, floor)
		at := fmt.Sprintf("%s, floor %d", name, floor)
		if got.tau != want.tau || got.partial || !reflect.DeepEqual(got.seed, want.seed) {
			t.Fatalf("%s: τ %d seed %v partial %v, reference τ %d seed %v", at, got.tau, got.seed, got.partial, want.tau, want.seed)
		}
		sameReduction(t, at, got.red, want.red)
		if !reflect.DeepEqual(got.jobs, want.jobs) {
			t.Fatalf("%s: jobs %v, reference %v", at, got.jobs, want.jobs)
		}
	}
	tau := computePlan(core.NewExec(nil, core.Limits{}), g, 0).tau
	for _, f := range sweeps(tau) {
		if f < 0 {
			continue
		}
		ex := core.NewExec(nil, core.Limits{})
		got := reduceFixedPoint(ex, coreReduction(g, f+1), f)
		want := reduceFixedPoint(ex, identity(g), f)
		sameReduction(t, fmt.Sprintf("%s, sweep at %d", name, f), got, want)
	}
}

// allSweeps are the sweep floors checked on small graphs: the query
// floors 0 and 2, where nothing or little peels, and τ−2, τ and τ+1, the
// tail's first descending floor and the levels around the plan's own.
// Larger graphs check the high floors only (highSweeps): a sweep near
// floor 0 runs the bicore rule over nearly the whole graph.
func allSweeps(tau int) []int  { return []int{0, 2, tau - 2, tau, tau + 1} }
func highSweeps(tau int) []int { return []int{tau - 2, tau, tau + 1} }

func TestPlanMatchesReference(t *testing.T) {
	type tier struct {
		n      int
		seeds  int64
		sweeps func(int) []int
	}
	tiers := []tier{{2000, 3, allSweeps}, {20000, 2, highSweeps}}
	if testing.Short() {
		tiers = []tier{{2000, 1, allSweeps}}
	}
	for _, c := range tiers {
		t.Run(fmt.Sprintf("standins-%d", c.n), func(t *testing.T) {
			for _, d := range workload.Registry {
				for seed := int64(1); seed <= c.seeds; seed++ {
					samePlanAsReference(t, fmt.Sprintf("%s seed %d", d.Name, seed), d.Generate(c.n, seed), c.sweeps)
				}
			}
		})
	}
	t.Run("dense-40x40", func(t *testing.T) {
		for i := 0; i < 60; i++ {
			d := []float64{0.5, 0.8, 0.85, 0.9, 0.95}[i%5]
			samePlanAsReference(t, fmt.Sprintf("dense %d d=%.2f", i, d), workload.Dense(40, 40, d, int64(i)), allSweeps)
		}
	})
	t.Run("edge-cases", func(t *testing.T) {
		kt := func(nl, nr, t int) *Graph {
			var edges [][2]int
			for l := 0; l < t; l++ {
				for r := 0; r < t; r++ {
					edges = append(edges, [2]int{l, r})
				}
			}
			return bigraph.FromEdges(nl, nr, edges)
		}
		star := func(nl int) *Graph {
			var edges [][2]int
			for l := 0; l < nl; l++ {
				edges = append(edges, [2]int{l, 0}, [2]int{l, l % 3})
			}
			return bigraph.FromEdges(nl, 3, edges)
		}
		graphs := map[string]*Graph{
			"empty":         bigraph.FromEdges(0, 0, nil),
			"no-left":       bigraph.FromEdges(0, 5, nil),
			"no-right":      bigraph.FromEdges(5, 0, nil),
			"edgeless":      bigraph.FromEdges(4, 6, nil),
			"single-edge":   bigraph.FromEdges(1, 1, [][2]int{{0, 0}}),
			"K4,4":          kt(4, 4, 4),
			"K4,4+isolated": kt(9, 6, 4),
			"three-hubs":    star(50),
		}
		for name, g := range graphs {
			samePlanAsReference(t, name, g, allSweeps)
		}
	})
}
