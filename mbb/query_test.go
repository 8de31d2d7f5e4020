package mbb_test

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/baseline"
	"repro/mbb"
)

// TestTopKOneMatchesScalar pins the k = 1 degeneration: TopK ≤ 1 must be
// byte-identical to the plain solve — same witness, same stats shape, and
// crucially no Bicliques list allocated.
func TestTopKOneMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 10; i++ {
		g := randomGraph(rng, 12, 0.2+0.6*rng.Float64())
		plain, err := mbb.Solve(g, &mbb.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{0, 1} {
			res, err := mbb.Solve(g, &mbb.Options{TopK: k})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(res, plain) {
				t.Fatalf("TopK=%d result diverges from plain solve:\n got %+v\nwant %+v", k, res, plain)
			}
			if res.Bicliques != nil {
				t.Fatalf("TopK=%d allocated a list", k)
			}
		}
	}
}

func TestTopKList(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for i := 0; i < 10; i++ {
		g := randomGraph(rng, 10, 0.2+0.6*rng.Float64())
		for _, k := range []int{2, 3, 5} {
			res, err := mbb.Solve(g, &mbb.Options{TopK: k})
			if err != nil {
				t.Fatal(err)
			}
			want := baseline.TopKSizes(nil, g, k, 0)
			got := make([]int, len(res.Bicliques))
			for j, bc := range res.Bicliques {
				got[j] = bc.Size()
				if !bc.IsBicliqueOf(g) || !bc.IsBalanced() {
					t.Fatalf("k=%d: invalid witness %v", k, bc)
				}
			}
			if len(got) == 0 {
				got = nil
			}
			if len(want) == 0 {
				want = nil
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("k=%d sizes = %v, oracle %v", k, got, want)
			}
			if len(got) > 0 && res.Biclique.Size() != got[0] {
				t.Fatalf("k=%d scalar %d != head %d", k, res.Biclique.Size(), got[0])
			}
			if !res.Exact || res.Gap != 0 {
				t.Fatalf("k=%d unbudgeted solve: exact=%v gap=%d", k, res.Exact, res.Gap)
			}
		}
	}
}

// TestMinSizeProof covers the size-constrained query class: a floor at or
// below the optimum leaves the answer unchanged, a floor above it turns
// the completed search into a proof of absence with the matching
// certified upper bound.
func TestMinSizeProof(t *testing.T) {
	g := mbb.FromEdges(4, 4, [][2]int{
		{0, 0}, {0, 1}, {1, 0}, {1, 1}, {2, 2}, {3, 3},
	}) // optimum 2 (K2,2), trivial bound 4
	for m := 1; m <= 2; m++ {
		res, err := mbb.Solve(g, &mbb.Options{MinSize: m})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Exact || res.Biclique.Size() != 2 || res.Gap != 0 {
			t.Fatalf("MinSize=%d: %+v", m, res)
		}
		if res.Stats.UpperBound != 2 {
			t.Fatalf("MinSize=%d: upper bound %d, want the optimum", m, res.Stats.UpperBound)
		}
	}
	res, err := mbb.Solve(g, &mbb.Options{MinSize: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Exact || res.Biclique.Size() != 0 {
		t.Fatalf("MinSize=3: want exact empty proof, got %+v", res)
	}
	if res.Stats.UpperBound != 2 {
		t.Fatalf("MinSize=3 proof certifies optimum <= %d, want 2 (= MinSize-1)", res.Stats.UpperBound)
	}
	if res.Gap != 0 {
		t.Fatalf("exact proof carries gap %d", res.Gap)
	}
}

// TestMinSizeInfeasibleRefused: a floor beyond a side of the graph is
// refused at plan time by counting — exact empty answer, no search.
func TestMinSizeInfeasibleRefused(t *testing.T) {
	g := mbb.FromEdges(3, 5, [][2]int{{0, 0}, {1, 1}, {2, 2}})
	res, err := mbb.Solve(g, &mbb.Options{MinSize: 4}) // > NL
	if err != nil {
		t.Fatal(err)
	}
	if !res.Exact || res.Biclique.Size() != 0 {
		t.Fatalf("infeasible floor: want exact empty, got %+v", res)
	}
	if res.Stats.Nodes != 0 {
		t.Fatalf("refusal ran a search: %d nodes", res.Stats.Nodes)
	}
	if res.Stats.UpperBound != 3 {
		t.Fatalf("refusal certificate %d, want trivial bound 3", res.Stats.UpperBound)
	}
	// The k > 1 form of a refusal still answers the list shape.
	res, err = mbb.Solve(g, &mbb.Options{MinSize: 4, TopK: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Bicliques == nil || len(res.Bicliques) != 0 {
		t.Fatalf("infeasible top-k: Bicliques = %+v, want empty list", res.Bicliques)
	}
}

// TestBudgetCutGap: an inexact answer must carry a certified optimality
// gap — upper bound minus best-so-far, never negative, with the bound
// capped by the trivial min(NL, NR).
func TestBudgetCutGap(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := randomGraph(rng, 60, 0.5)
	res, err := mbb.Solve(g, &mbb.Options{Algorithm: mbb.BasicBB, MaxNodes: 10})
	if err != nil {
		t.Fatal(err)
	}
	if res.Exact {
		t.Fatal("10-node basicBB on a 60x60 graph cannot be exact")
	}
	trivial := g.NL()
	if g.NR() < trivial {
		trivial = g.NR()
	}
	size := res.Biclique.Size()
	ub := res.Stats.UpperBound
	if ub < size || ub > trivial {
		t.Fatalf("upper bound %d outside [size %d, trivial %d]", ub, size, trivial)
	}
	if res.Gap != ub-size {
		t.Fatalf("gap %d != upper bound %d - size %d", res.Gap, ub, size)
	}
	// Same contract through the planner and on a top-k cut.
	res, err = mbb.Solve(g, &mbb.Options{MaxNodes: 10, Reduce: mbb.ReduceOn, TopK: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Exact {
		t.Fatal("10-node budget with a top-k tail cannot be exact")
	}
	if res.Gap != res.Stats.UpperBound-res.Biclique.Size() || res.Gap < 0 {
		t.Fatalf("top-k cut gap %d, ub %d, size %d", res.Gap, res.Stats.UpperBound, res.Biclique.Size())
	}
}

// TestPlanQueryParity: the same query against a cached plan must answer
// exactly like the direct solve — plans are query-independent.
func TestPlanQueryParity(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 6; i++ {
		g := randomGraph(rng, 10, 0.3+0.5*rng.Float64())
		plan, err := mbb.PlanContext(context.Background(), g)
		if err != nil {
			t.Fatal(err)
		}
		opts := []mbb.Options{
			{TopK: 3},
			{MinSize: 2},
			{TopK: 2, MinSize: 2},
			{MinSize: 99}, // infeasible on a ≤10-a-side graph
		}
		for _, opt := range opts {
			o1, o2 := opt, opt
			direct, err := mbb.Solve(g, &o1)
			if err != nil {
				t.Fatal(err)
			}
			viaPlan, err := plan.SolveContext(context.Background(), &o2)
			if err != nil {
				t.Fatal(err)
			}
			if viaPlan.Exact != direct.Exact || viaPlan.Biclique.Size() != direct.Biclique.Size() ||
				viaPlan.Gap != direct.Gap || len(viaPlan.Bicliques) != len(direct.Bicliques) {
				t.Fatalf("opt %+v: plan answer %+v diverges from direct %+v", opt, viaPlan, direct)
			}
			for j := range viaPlan.Bicliques {
				if viaPlan.Bicliques[j].Size() != direct.Bicliques[j].Size() {
					t.Fatalf("opt %+v: plan list sizes diverge at %d", opt, j)
				}
			}
		}
	}
}

// disjointBicliques builds the disjoint union of complete bicliques
// K(a, b), one per shape, in order.
func disjointBicliques(shapes ...[2]int) *mbb.Graph {
	nl, nr := 0, 0
	for _, s := range shapes {
		nl += s[0]
		nr += s[1]
	}
	b := mbb.NewBuilder(nl, nr)
	l0, r0 := 0, 0
	for _, s := range shapes {
		for l := 0; l < s[0]; l++ {
			for r := 0; r < s[1]; r++ {
				b.AddEdge(l0+l, r0+r)
			}
		}
		l0 += s[0]
		r0 += s[1]
	}
	return b.Build()
}

// checkTail solves opt on g directly and from a cached plan, and checks
// both lists against the oracle's sizes and every witness for validity.
// It returns the sizes.
func checkTail(t *testing.T, g *mbb.Graph, opt mbb.Options) []int {
	t.Helper()
	want := baseline.TopKSizes(nil, g, opt.TopK, opt.MinSize)
	plan, err := mbb.PlanContext(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	var got []int
	for _, via := range []string{"direct", "plan"} {
		o := opt
		var res mbb.Result
		if via == "direct" {
			res, err = mbb.Solve(g, &o)
		} else {
			res, err = plan.SolveContext(context.Background(), &o)
		}
		if err != nil {
			t.Fatal(err)
		}
		if !res.Exact {
			t.Fatalf("%s %+v: unbudgeted top-k solve is inexact", via, opt)
		}
		got = []int{}
		for _, bc := range res.Bicliques {
			if !bc.IsBicliqueOf(g) || !bc.IsBalanced() {
				t.Fatalf("%s %+v: invalid witness %v", via, opt, bc)
			}
			got = append(got, bc.Size())
		}
		if len(want) > 0 || len(got) > 0 {
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s %+v: sizes %v, oracle %v", via, opt, got, want)
			}
		}
	}
	return got
}

// TestTopKTailFloors covers the descending floors of the top-k tail: a
// k-th size of s*−1 that the first sweep (at s*−2) finds, a second size
// only the sweep at the query floor reaches, fewer distinct sizes than
// k, and a MinSize floor that cuts the descent short.
func TestTopKTailFloors(t *testing.T) {
	// K5,5 ∪ K4,4: the second size is s*−1 = 4, inside the first sweep.
	g := disjointBicliques([2]int{5, 5}, [2]int{4, 4})
	if fs := mbb.TailFloors(5, 0, true); fs[0] != 3 {
		t.Fatalf("first floor under s*=5 is %d, want s*-2 = 3", fs[0])
	}
	if got := checkTail(t, g, mbb.Options{TopK: 2}); !reflect.DeepEqual(got, []int{5, 4}) {
		t.Fatalf("K5,5+K4,4 top-2 = %v", got)
	}

	// K9,9 ∪ K3,5: size 3 lies below every floor but the query's.
	g = disjointBicliques([2]int{9, 9}, [2]int{3, 5})
	if fs := mbb.TailFloors(9, 0, true); !reflect.DeepEqual(fs, []int{7, 6, 4, 0}) {
		t.Fatalf("floors under s*=9 = %v, want [7 6 4 0]", fs)
	}
	if got := checkTail(t, g, mbb.Options{TopK: 2}); !reflect.DeepEqual(got, []int{9, 3}) {
		t.Fatalf("K9,9+K3,5 top-2 = %v", got)
	}
	// MinSize 4 (floor 3): the descent stops at the query floor.
	if fs := mbb.TailFloors(9, 3, true); !reflect.DeepEqual(fs, []int{7, 6, 4, 3}) {
		t.Fatalf("floors under s*=9, floor 3 = %v, want [7 6 4 3]", fs)
	}
	if got := checkTail(t, g, mbb.Options{TopK: 2, MinSize: 4}); !reflect.DeepEqual(got, []int{9}) {
		t.Fatalf("K9,9+K3,5 top-2 min 4 = %v", got)
	}
	// Without an exact maximum there is one sweep, at the query floor.
	if fs := mbb.TailFloors(9, 3, false); !reflect.DeepEqual(fs, []int{3}) {
		t.Fatalf("inexact floors = %v, want [3]", fs)
	}

	// K5,5 has one distinct size: k = 3 sweeps down to the floor and
	// returns a shorter list.
	if got := checkTail(t, disjointBicliques([2]int{5, 5}), mbb.Options{TopK: 3}); !reflect.DeepEqual(got, []int{5}) {
		t.Fatalf("K5,5 top-3 = %v", got)
	}
}

// TestTopKTailSliceKernel runs the tail on a component over the planner's
// dense/sparse cell bound, which the tail enumerates with the slice
// kernel instead of the word-parallel one: K3,3 beside a double star (a
// left hub on every right leaf, a right hub on every left leaf, the hubs
// adjacent) of 4097 vertices a side. The double star survives only the
// sweep at floor 0, where it supplies the second size, 1.
func TestTopKTailSliceKernel(t *testing.T) {
	if testing.Short() {
		t.Skip("8k-vertex oracle enumeration")
	}
	const n = 4097
	if int64(n)*n <= mbb.DenseAutoLimit {
		t.Fatalf("a %dx%d component no longer exceeds the cell bound %d", n, n, mbb.DenseAutoLimit)
	}
	b := mbb.NewBuilder(3+n, 3+n)
	for l := 0; l < 3; l++ {
		for r := 0; r < 3; r++ {
			b.AddEdge(l, r)
		}
	}
	hubL, hubR := 3, 3 // left and right hub indices
	for i := 0; i < n; i++ {
		b.AddEdge(hubL, 3+i) // left hub to every right vertex, hub included
		b.AddEdge(3+i, hubR) // right hub to every left vertex, hub included
	}
	g := b.Build()
	if got := checkTail(t, g, mbb.Options{TopK: 2}); !reflect.DeepEqual(got, []int{3, 1}) {
		t.Fatalf("K3,3 + double star top-2 = %v", got)
	}
}

// TestTopKStatsNodesCountsTail: the tail spends nodes from the solve's
// Exec, so they count against MaxNodes and must show in Stats.Nodes.
func TestTopKStatsNodesCountsTail(t *testing.T) {
	g := disjointBicliques([2]int{9, 9}, [2]int{3, 5})
	plan, err := mbb.PlanContext(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	one, err := plan.SolveContext(context.Background(), &mbb.Options{TopK: 1})
	if err != nil {
		t.Fatal(err)
	}
	two, err := plan.SolveContext(context.Background(), &mbb.Options{TopK: 2})
	if err != nil {
		t.Fatal(err)
	}
	if two.Stats.Nodes <= one.Stats.Nodes {
		t.Fatalf("top-2 Stats.Nodes %d does not exceed the k=1 count %d", two.Stats.Nodes, one.Stats.Nodes)
	}
	// The reported count is what the budget saw: a MaxNodes of exactly
	// that many nodes still completes the list.
	capped, err := plan.SolveContext(context.Background(), &mbb.Options{TopK: 2, MaxNodes: two.Stats.Nodes})
	if err != nil {
		t.Fatal(err)
	}
	if !capped.Exact || len(capped.Bicliques) != len(two.Bicliques) {
		t.Fatalf("MaxNodes = reported nodes %d cut the list: %+v", two.Stats.Nodes, capped)
	}
}
