package baseline_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/baseline"
	"repro/internal/bigraph"
	"repro/internal/core"
)

// kernelCase is one way to drive an enumeration kernel: its bound hook,
// an early stop by fn and a node budget.
type kernelCase struct {
	bound     int   // -1: nil bound; 0..5: fixed bound; 6: a TopK heap's bound
	stopAfter int   // fn returns false on this report (0: never)
	maxNodes  int64 // node budget (0: none)
}

func (c kernelCase) String() string {
	return fmt.Sprintf("bound=%d stopAfter=%d maxNodes=%d", c.bound, c.stopAfter, c.maxNodes)
}

// kernelRun is what one kernel did under one case.
type kernelRun struct {
	Reports [][2][]int
	Count   int
	Nodes   int64
}

type enumKernel func(ex *core.Exec, g *bigraph.Graph, bound func() int, fn func(A, B []int) bool) int

func runKernel(kernel enumKernel, g *bigraph.Graph, c kernelCase) kernelRun {
	ex := core.NewExec(nil, core.Limits{MaxNodes: c.maxNodes})
	var bound func() int
	heap := core.NewTopK(3)
	switch {
	case c.bound == 6:
		bound = heap.Bound
	case c.bound >= 0:
		b := c.bound
		bound = func() int { return b }
	}
	var run kernelRun
	run.Count = kernel(ex, g, bound, func(A, B []int) bool {
		// The word kernel reuses its buffers: copy.
		run.Reports = append(run.Reports, [2][]int{append([]int(nil), A...), append([]int(nil), B...)})
		s := min(len(A), len(B))
		heap.Offer(bigraph.Biclique{A: A[:s], B: B[:s]})
		return c.stopAfter == 0 || len(run.Reports) < c.stopAfter
	})
	run.Nodes = ex.Nodes()
	return run
}

// compareKernels runs the word-parallel and the slice kernel under c and
// reports the first difference in report sequence, count or nodes spent.
func compareKernels(g *bigraph.Graph, c kernelCase) error {
	want := runKernel(baseline.EnumerateMaximalPruned, g, c)
	got := runKernel(baseline.EnumerateMaximalWords, g, c)
	if len(got.Reports) != len(want.Reports) {
		return fmt.Errorf("%v: word kernel reported %d bicliques, slice kernel %d", c, len(got.Reports), len(want.Reports))
	}
	for i := range want.Reports {
		if !reflect.DeepEqual(got.Reports[i], want.Reports[i]) {
			return fmt.Errorf("%v: report %d is %v, slice kernel %v", c, i, got.Reports[i], want.Reports[i])
		}
	}
	if got.Count != want.Count || got.Nodes != want.Nodes {
		return fmt.Errorf("%v: count %d nodes %d, slice kernel count %d nodes %d", c, got.Count, got.Nodes, want.Count, want.Nodes)
	}
	return nil
}

// kernelCases is the fixed set every differential graph runs under: the
// nil bound, fixed bounds 0–5, a growing heap bound, an early stop and a
// node-budget cut (alone and under the heap bound).
func kernelCases(rng *rand.Rand) []kernelCase {
	cs := []kernelCase{{bound: -1}}
	for b := 0; b <= 6; b++ {
		cs = append(cs, kernelCase{bound: b})
	}
	return append(cs,
		kernelCase{bound: -1, stopAfter: 1 + rng.Intn(8)},
		kernelCase{bound: -1, maxNodes: 1 + int64(rng.Intn(40))},
		kernelCase{bound: 6, maxNodes: 1 + int64(rng.Intn(40))},
	)
}

// randomWideGraph draws a graph whose left side reaches past two 64-bit
// words while the right side stays small enough to bound the
// enumeration, at a density anywhere in [0, 1].
func randomWideGraph(rng *rand.Rand) *bigraph.Graph {
	nl, nr := 1+rng.Intn(130), 1+rng.Intn(12)
	p := rng.Float64()
	b := bigraph.NewBuilder(nl, nr)
	for l := 0; l < nl; l++ {
		for r := 0; r < nr; r++ {
			if rng.Float64() < p {
				b.AddEdge(l, r)
			}
		}
	}
	return b.Build()
}

// TestEnumerateWordsMatchesSlices pins the word-parallel kernel to the
// slice kernel: the same reports (A, B and order), the same count and
// the same nodes, under every bound and stop of kernelCases.
func TestEnumerateWordsMatchesSlices(t *testing.T) {
	graphs := 400
	if testing.Short() {
		graphs = 100
	}
	rng := rand.New(rand.NewSource(18))
	for i := 0; i < graphs; i++ {
		g := randomWideGraph(rng)
		for _, c := range kernelCases(rng) {
			if err := compareKernels(g, c); err != nil {
				t.Fatalf("graph %d (%dx%d, %d edges): %v", i, g.NL(), g.NR(), g.NumEdges(), err)
			}
		}
	}
	// A complete 130x12 graph has one maximal biclique; every row is
	// full, including the partial third word.
	full := bigraph.NewBuilder(130, 12)
	for l := 0; l < 130; l++ {
		for r := 0; r < 12; r++ {
			full.AddEdge(l, r)
		}
	}
	g := full.Build()
	if err := compareKernels(g, kernelCase{bound: -1}); err != nil {
		t.Fatal(err)
	}
	if n := baseline.EnumerateMaximalWords(nil, g, nil, func(A, B []int) bool { return true }); n != 1 {
		t.Fatalf("complete 130x12 graph: %d maximal bicliques, want 1", n)
	}
}

// FuzzEnumerateWords differential-fuzzes the two kernels: the first
// bytes pick the side sizes (left up to 130, right up to 12) and the
// case, the rest are the adjacency bits, repeated cyclically.
func FuzzEnumerateWords(f *testing.F) {
	f.Add([]byte{129, 11, 0, 0, 0, 0xff})
	f.Add([]byte{70, 7, 6, 0, 0, 0x5a, 0xc3, 0x0f})
	f.Add([]byte{64, 12, 3, 2, 0, 0xaa, 0x55})
	f.Add([]byte{100, 9, 255, 0, 17, 0x81, 0x42, 0x24, 0x18})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 5 {
			return
		}
		nl, nr := 1+int(data[0])%130, 1+int(data[1])%12
		c := kernelCase{
			bound:     int(data[2])%8 - 1,
			stopAfter: int(data[3]) % 16,
			maxNodes:  int64(data[4]) % 64,
		}
		adj := data[5:]
		b := bigraph.NewBuilder(nl, nr)
		if len(adj) > 0 {
			for cell := 0; cell < nl*nr; cell++ {
				bit := cell % (8 * len(adj))
				if adj[bit>>3]&(1<<(bit&7)) != 0 {
					b.AddEdge(cell/nr, cell%nr)
				}
			}
		}
		if err := compareKernels(b.Build(), c); err != nil {
			t.Fatal(err)
		}
	})
}
