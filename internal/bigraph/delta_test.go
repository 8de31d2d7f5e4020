package bigraph

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// edgeSet collects a graph's edges as a set of side-local pairs.
func edgeSet(g *Graph) map[[2]int]bool {
	out := make(map[[2]int]bool, g.NumEdges())
	for _, e := range g.Edges() {
		out[e] = true
	}
	return out
}

func TestApplyBasic(t *testing.T) {
	g := FromEdges(3, 3, [][2]int{{0, 0}, {0, 1}, {1, 0}, {1, 1}, {2, 2}})
	g2, eff, err := g.Apply(Delta{
		Add: [][2]int{{2, 0}, {0, 0}, {2, 0}}, // {0,0} present, {2,0} duplicated
		Del: [][2]int{{1, 1}, {1, 2}},         // {1,2} absent
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(eff.Add) != 1 || eff.Add[0] != [2]int{2, 0} {
		t.Errorf("effective adds %v, want [[2 0]]", eff.Add)
	}
	if len(eff.Del) != 1 || eff.Del[0] != [2]int{1, 1} {
		t.Errorf("effective dels %v, want [[1 1]]", eff.Del)
	}
	want := map[[2]int]bool{{0, 0}: true, {0, 1}: true, {1, 0}: true, {2, 2}: true, {2, 0}: true}
	if got := edgeSet(g2); !reflect.DeepEqual(got, want) {
		t.Errorf("edges %v, want %v", got, want)
	}
	if g2.NumEdges() != 5 {
		t.Errorf("m = %d, want 5", g2.NumEdges())
	}
	// Copy-on-write: the original graph is untouched.
	if g.NumEdges() != 5 || !g.HasEdge(1, g.NL()+1) || g.HasEdge(2, g.NL()+0) {
		t.Error("Apply mutated the original graph")
	}
}

func TestApplyNoOp(t *testing.T) {
	g := FromEdges(2, 2, [][2]int{{0, 0}, {1, 1}})
	cases := []Delta{
		{},
		{Add: [][2]int{{0, 0}}}, // already present
		{Del: [][2]int{{0, 1}}}, // absent
		{Add: [][2]int{{0, 1}}, Del: [][2]int{{0, 1}}}, // del-then-add of an absent edge... effective add
	}
	for i, d := range cases[:3] {
		g2, eff, err := g.Apply(d)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if !eff.Empty() {
			t.Errorf("case %d: effective delta %+v, want empty", i, eff)
		}
		if g2 != g {
			t.Errorf("case %d: no-op delta did not return the original graph", i)
		}
	}
	// An edge in both lists that is absent: deletion is a no-op, the
	// addition lands.
	g2, eff, err := g.Apply(cases[3])
	if err != nil {
		t.Fatal(err)
	}
	if len(eff.Add) != 1 || len(eff.Del) != 0 || !g2.HasEdge(0, g2.NL()+1) {
		t.Errorf("del+add of absent edge: eff %+v edges %v", eff, g2.Edges())
	}
	// An edge in both lists that is present: net no-op.
	g3, eff, err := g.Apply(Delta{Add: [][2]int{{0, 0}}, Del: [][2]int{{0, 0}}})
	if err != nil {
		t.Fatal(err)
	}
	if !eff.Empty() || g3 != g {
		t.Errorf("del+add of present edge: eff %+v", eff)
	}
}

func TestApplyErrors(t *testing.T) {
	g := FromEdges(2, 3, [][2]int{{0, 0}})
	for _, d := range []Delta{
		{Add: [][2]int{{2, 0}}},
		{Add: [][2]int{{0, 3}}},
		{Add: [][2]int{{-1, 0}}},
		{Del: [][2]int{{0, -2}}},
		{Del: [][2]int{{5, 5}}},
	} {
		if _, _, err := g.Apply(d); err == nil {
			t.Errorf("Apply(%+v) accepted an out-of-range edge", d)
		}
	}
}

// randomDelta builds a delta of roughly k adds and k dels against g,
// drawn from the full index space (so some name absent or duplicate
// edges on purpose).
func randomDelta(rng *rand.Rand, g *Graph, k int) Delta {
	var d Delta
	edges := g.Edges()
	for i := 0; i < k; i++ {
		d.Add = append(d.Add, [2]int{rng.Intn(g.NL()), rng.Intn(g.NR())})
		if len(edges) > 0 && rng.Intn(2) == 0 {
			d.Del = append(d.Del, edges[rng.Intn(len(edges))])
		} else {
			d.Del = append(d.Del, [2]int{rng.Intn(g.NL()), rng.Intn(g.NR())})
		}
	}
	return d
}

// applyByRebuild is the oracle: materialise the edge set, delete, add,
// rebuild from scratch through the Builder.
func applyByRebuild(g *Graph, d Delta) *Graph {
	set := edgeSet(g)
	for _, e := range d.Del {
		delete(set, e)
	}
	for _, e := range d.Add {
		set[e] = true
	}
	b := NewBuilder(g.NL(), g.NR())
	for e := range set {
		b.AddEdge(e[0], e[1])
	}
	return b.Build()
}

// refPatched is the layout loop Graph.Apply ran before it copied
// untouched runs wholesale: a map of per-vertex overlays, looked up for
// every vertex twice, and a copy per vertex. Given Apply's effective
// delta it must give the same CSR arrays as Graph.patched; it is the test
// oracle only.
func refPatched(g *Graph, eff Delta) *Graph {
	type patch struct{ add, del []int32 }
	patches := make(map[int32]*patch, 2*(len(eff.Add)+len(eff.Del)))
	at := func(v int32) *patch {
		p := patches[v]
		if p == nil {
			p = &patch{}
			patches[v] = p
		}
		return p
	}
	for _, e := range eff.Add {
		u, v := int32(e[0]), int32(g.nl+e[1])
		at(u).add = append(at(u).add, v)
		at(v).add = append(at(v).add, u)
	}
	for _, e := range eff.Del {
		u, v := int32(e[0]), int32(g.nl+e[1])
		at(u).del = append(at(u).del, v)
		at(v).del = append(at(v).del, u)
	}

	n := g.nl + g.nr
	off := make([]int32, n+1)
	for v := 0; v < n; v++ {
		deg := int32(g.Deg(v))
		if p := patches[int32(v)]; p != nil {
			deg += int32(len(p.add) - len(p.del))
		}
		off[v+1] = off[v] + deg
	}
	m2 := g.m + len(eff.Add) - len(eff.Del)
	adj := make([]int32, 2*m2)
	for v := 0; v < n; v++ {
		old := g.Neighbors(v)
		p := patches[int32(v)]
		if p == nil {
			copy(adj[off[v]:off[v+1]], old)
			continue
		}
		slices.Sort(p.add)
		slices.Sort(p.del)
		w, ai, di := off[v], 0, 0
		for _, x := range old {
			for ai < len(p.add) && p.add[ai] < x {
				adj[w] = p.add[ai]
				w++
				ai++
			}
			if di < len(p.del) && p.del[di] == x {
				di++
				continue
			}
			adj[w] = x
			w++
		}
		for ai < len(p.add) {
			adj[w] = p.add[ai]
			w++
			ai++
		}
	}
	return &Graph{nl: g.nl, nr: g.nr, off: off, adj: adj, m: m2}
}

// sameAsPatchedReference fails t unless Apply's result has exactly the
// CSR arrays the per-vertex reference loop lays out.
func sameAsPatchedReference(t *testing.T, name string, g, got *Graph, eff Delta) {
	t.Helper()
	if eff.Empty() {
		if got != g {
			t.Fatalf("%s: an empty effective delta did not return g", name)
		}
		return
	}
	if want := refPatched(g, eff); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: Apply laid out off %v adj %v, the reference off %v adj %v", name, got.off, got.adj, want.off, want.adj)
	}
}

// skewedGraph draws m edges whose endpoints favour low ids on both
// sides, so degrees run from hubs down to isolated vertices, as in the
// sparse stand-ins.
func skewedGraph(rng *rand.Rand, nl, nr, m int) *Graph {
	b := NewBuilder(nl, nr)
	for i := 0; i < m; i++ {
		u, v := rng.Float64(), rng.Float64()
		b.AddEdge(int(float64(nl)*u*u*u), int(float64(nr)*v*v))
	}
	return b.Build()
}

// TestApplyMatchesPatchedReference pins Apply's run-copying layout to
// the per-vertex reference loop on skewed graphs, with batches that
// touch the first and last vertex, empty a hub's list, fill isolated
// vertices, and touch one vertex many times.
func TestApplyMatchesPatchedReference(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, shape := range [][3]int{{300, 100, 900}, {100, 300, 900}, {3000, 2000, 12000}} {
		for rep := 0; rep < 3; rep++ {
			g := skewedGraph(rng, shape[0], shape[1], shape[2])
			name := fmt.Sprintf("%dx%d/%d #%d", g.NL(), g.NR(), g.NumEdges(), rep)
			nl, nr := g.NL(), g.NR()
			batches := []Delta{
				{Add: [][2]int{{0, 0}, {nl - 1, nr - 1}}, Del: g.Edges()[:1]},
				{Del: g.Edges()[len(g.Edges())-3:]},
				{Add: [][2]int{{nl - 1, 0}, {nl - 1, 1}, {nl - 1, 2}, {0, nr - 1}}},
			}
			// Every edge of the highest-degree left vertex goes.
			hub := 0
			for l := 0; l < nl; l++ {
				if g.Deg(l) > g.Deg(hub) {
					hub = l
				}
			}
			var all [][2]int
			for _, r := range g.Neighbors(hub) {
				all = append(all, [2]int{hub, int(r) - nl})
			}
			batches = append(batches, Delta{Del: all})
			for i := 0; i < 20; i++ {
				batches = append(batches, randomDelta(rng, g, 1+rng.Intn(40)))
			}
			for i, d := range batches {
				got, eff, err := g.Apply(d)
				if err != nil {
					t.Fatal(err)
				}
				sameAsPatchedReference(t, fmt.Sprintf("%s batch %d", name, i), g, got, eff)
			}
		}
	}
}

// TestApplyMatchesRebuild is the differential test of the copy-on-write
// path: across random graphs and random deltas, Apply must produce
// exactly the graph a from-scratch rebuild produces.
func TestApplyMatchesRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		nl, nr := 1+rng.Intn(12), 1+rng.Intn(12)
		b := NewBuilder(nl, nr)
		for i := 0; i < rng.Intn(3*nl*nr/2+1); i++ {
			b.AddEdge(rng.Intn(nl), rng.Intn(nr))
		}
		g := b.Build()
		d := randomDelta(rng, g, rng.Intn(8))
		got, eff, err := g.Apply(d)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		want := applyByRebuild(g, d)
		if got.NL() != want.NL() || got.NR() != want.NR() || got.NumEdges() != want.NumEdges() {
			t.Fatalf("trial %d: shape %dx%d/%d, want %dx%d/%d (delta %+v)",
				trial, got.NL(), got.NR(), got.NumEdges(), want.NL(), want.NR(), want.NumEdges(), d)
		}
		if !reflect.DeepEqual(got.Edges(), want.Edges()) {
			t.Fatalf("trial %d: edge sets diverged (delta %+v)\n got %v\nwant %v",
				trial, d, got.Edges(), want.Edges())
		}
		if g.NumEdges()-len(eff.Del)+len(eff.Add) != got.NumEdges() {
			t.Fatalf("trial %d: effective counts inconsistent: m %d -%d +%d != %d",
				trial, g.NumEdges(), len(eff.Del), len(eff.Add), got.NumEdges())
		}
		sameAsPatchedReference(t, fmt.Sprintf("trial %d", trial), g, got, eff)
		// Adjacency invariants the solvers rely on: sorted, duplicate-free
		// lists on both sides.
		for v := 0; v < got.NumVertices(); v++ {
			ns := got.Neighbors(v)
			for i := 1; i < len(ns); i++ {
				if ns[i] <= ns[i-1] {
					t.Fatalf("trial %d: vertex %d adjacency not strictly sorted: %v", trial, v, ns)
				}
			}
		}
	}
}
