package decomp

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/bigraph"
	"repro/internal/workload"
)

// refKCoreMask is the whole-graph peel KCoreMask ran before it peeled
// only the candidates: every vertex gets a degree, every vertex of degree
// below k is queued, and the queue is drained. It is the test oracle of
// the candidate peel.
func refKCoreMask(g *bigraph.Graph, k int) []bool {
	n := g.NumVertices()
	alive := make([]bool, n)
	deg := make([]int, n)
	var queue []int
	for v := 0; v < n; v++ {
		alive[v] = true
		deg[v] = g.Deg(v)
		if deg[v] < k {
			queue = append(queue, v)
			alive[v] = false
		}
	}
	for len(queue) > 0 {
		v := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for _, wn := range g.Neighbors(v) {
			w := int(wn)
			if !alive[w] {
				continue
			}
			deg[w]--
			if deg[w] < k {
				alive[w] = false
				queue = append(queue, w)
			}
		}
	}
	return alive
}

// sameCoreAsReference fails t unless KCoreMask, KCoreMaskInto over a
// dirty buffer and KCoreList all give the reference k-core of g.
func sameCoreAsReference(t *testing.T, name string, g *bigraph.Graph, k int) {
	t.Helper()
	want := refKCoreMask(g, k)
	if got := KCoreMask(g, k); !slices.Equal(got, want) {
		t.Fatalf("%s, k=%d: KCoreMask = %v, reference %v", name, k, got, want)
	}
	dirty := make([]bool, g.NumVertices()+3)
	for i := range dirty {
		dirty[i] = true
	}
	if got := KCoreMaskInto(g, k, dirty); !slices.Equal(got, want) {
		t.Fatalf("%s, k=%d: KCoreMaskInto over a dirty buffer = %v, reference %v", name, k, got, want)
	}
	var wantList []int
	for v, ok := range want {
		if ok {
			wantList = append(wantList, v)
		}
	}
	if got := KCoreList(g, k); len(got) != len(wantList) || !slices.Equal(got, wantList) {
		t.Fatalf("%s, k=%d: KCoreList = %v, reference %v", name, k, got, wantList)
	}
}

// coreKs are the peel levels every test graph is checked at: the trivial
// levels, the level where only the densest vertices are candidates, and
// the first level with no candidates at all.
func coreKs(g *bigraph.Graph) []int {
	md := g.MaxDegree()
	return []int{-1, 0, 1, 2, 3, md - 1, md, md + 1}
}

func TestKCoreMatchesReference(t *testing.T) {
	t.Run("random", func(t *testing.T) {
		rng := rand.New(rand.NewSource(25))
		trials := 600
		if testing.Short() {
			trials = 150
		}
		for i := 0; i < trials; i++ {
			// Balanced, left-heavy and right-heavy shapes.
			nl, nr := 1+rng.Intn(30), 1+rng.Intn(30)
			switch i % 3 {
			case 1:
				nl *= 8
			case 2:
				nr *= 8
			}
			g := randomTestGraph(rng, nl, nr, rng.Float64()*0.4)
			for _, k := range coreKs(g) {
				sameCoreAsReference(t, fmt.Sprintf("graph %d %dx%d m=%d", i, nl, nr, g.NumEdges()), g, k)
			}
		}
	})
	t.Run("edge-cases", func(t *testing.T) {
		graphs := map[string]*bigraph.Graph{
			"empty":         bigraph.FromEdges(0, 0, nil),
			"no-left":       bigraph.FromEdges(0, 5, nil),
			"no-right":      bigraph.FromEdges(5, 0, nil),
			"edgeless":      bigraph.FromEdges(4, 6, nil),
			"single-edge":   bigraph.FromEdges(1, 1, [][2]int{{0, 0}}),
			"fig1b":         fig1b(),
			"K3,3+isolated": bigraph.FromEdges(6, 5, [][2]int{{0, 0}, {0, 1}, {0, 2}, {1, 0}, {1, 1}, {1, 2}, {2, 0}, {2, 1}, {2, 2}}),
		}
		for name, g := range graphs {
			for _, k := range coreKs(g) {
				sameCoreAsReference(t, name, g, k)
			}
		}
	})
	t.Run("one-sided", func(t *testing.T) {
		// A jester-like shape: 4 right hubs adjacent to most of 200 left
		// vertices. At k = 5 the right side has fewer than k vertices, so
		// the one-sided bound empties the core although each hub has
		// degree about 180; at k ≤ 4 the hubs and their rows survive.
		rng := rand.New(rand.NewSource(7))
		b := bigraph.NewBuilder(200, 4)
		for l := 0; l < 200; l++ {
			for r := 0; r < 4; r++ {
				if rng.Float64() < 0.9 {
					b.AddEdge(l, r)
				}
			}
		}
		g := b.Build()
		for k := 0; k <= 6; k++ {
			sameCoreAsReference(t, "hubs", g, k)
		}
		if n := len(KCoreList(g, 5)); n != 0 {
			t.Fatalf("5-core of a graph with 4 right vertices has %d vertices", n)
		}
		// The peel empties a side: K3,3 minus (l2, r2), plus the pendant
		// edges l2–r3 and l3–r2. Both sides have 3 candidates for k = 3,
		// but l2 has only 2 candidate neighbours, so the left side drops
		// below k and the 3-core is empty.
		edges := [][2]int{{0, 0}, {0, 1}, {0, 2}, {1, 0}, {1, 1}, {1, 2}, {2, 0}, {2, 1}, {2, 3}, {3, 2}}
		g = bigraph.FromEdges(4, 4, edges)
		for k := 0; k <= 4; k++ {
			sameCoreAsReference(t, "side-emptied", g, k)
		}
		if n := len(KCoreList(g, 3)); n != 0 {
			t.Fatalf("3-core of the side-emptied graph has %d vertices", n)
		}
	})
	t.Run("standins", func(t *testing.T) {
		for _, d := range workload.Registry {
			g := d.Generate(2000, 1)
			for _, k := range append(coreKs(g), 4, 6, 8, 12, 20) {
				sameCoreAsReference(t, d.Name, g, k)
			}
		}
	})
}

// FuzzKCoreMatchesReference: the first two bytes give the side sizes, the
// third the peel level (up to the largest possible degree plus two, or a
// negative one), and every further byte pair an edge.
func FuzzKCoreMatchesReference(f *testing.F) {
	f.Add([]byte{4, 4, 2, 0, 0, 0, 1, 1, 0, 1, 1, 2, 2, 3, 3})
	f.Add([]byte{9, 2, 3, 0, 0, 1, 0, 2, 0, 3, 1, 4, 1, 5, 0, 5, 1})
	f.Add([]byte{0, 5, 1})
	f.Add([]byte{5, 0, 0})
	f.Add([]byte{3, 3, 255, 0, 0, 1, 1, 2, 2})
	f.Add([]byte{12, 7, 3, 5, 9, 3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		nl, nr := int(data[0])%24, int(data[1])%24
		b := bigraph.NewBuilder(nl, nr)
		if nl > 0 && nr > 0 {
			edges := data[3:]
			for i := 0; i+1 < len(edges); i += 2 {
				b.AddEdge(int(edges[i])%nl, int(edges[i+1])%nr)
			}
		}
		g := b.Build()
		k := int(data[2])%(max(nl, nr)+3) - 1
		sameCoreAsReference(t, "fuzz", g, k)
	})
}

// BenchmarkKCore times the candidate peel against the whole-graph
// reference on a dense input where every vertex is a candidate, a
// power-law graph at a low k where most are, and a larger power-law
// graph from a low k to a high one, where few are.
func BenchmarkKCore(b *testing.B) {
	big := workload.PowerLaw(50000, 50000, 300000, 0.5, 7)
	cases := []struct {
		name string
		g    *bigraph.Graph
		k    int
	}{
		{"dense40/k30", workload.Dense(40, 40, 0.9, 1), 30},
		{"powerlaw20k/k3", workload.PowerLaw(10000, 10000, 60000, 0.5, 6), 3},
		{"powerlaw100k/k2", big, 2},
		{"powerlaw100k/k12", big, 12},
		{"powerlaw100k/k30", big, 30},
	}
	for _, c := range cases {
		b.Run(c.name+"/candidate", func(b *testing.B) {
			for b.Loop() {
				KCoreMask(c.g, c.k)
			}
		})
		b.Run(c.name+"/reference", func(b *testing.B) {
			for b.Loop() {
				refKCoreMask(c.g, c.k)
			}
		})
	}
}
