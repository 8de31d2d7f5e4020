package heur

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/bigraph"
)

// TestIntersectAdj checks both ways intersectAdj can run — the merge and
// the binary search against a much longer adjacency list — against a
// plain membership filter.
func TestIntersectAdj(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	// Left vertex 0 is a hub adjacent to 90% of 2,000 right vertices;
	// left vertex 1 has a short list.
	nr := 2000
	b := bigraph.NewBuilder(2, nr)
	for r := 0; r < nr; r++ {
		if rng.Float64() < 0.9 {
			b.AddEdge(0, r)
		}
		if r%97 == 0 {
			b.AddEdge(1, r)
		}
	}
	g := b.Build()
	for trial := 0; trial < 500; trial++ {
		var cand []int
		p := []float64{0.001, 0.01, 0.1, 0.9}[trial%4]
		for r := 0; r < nr; r++ {
			if rng.Float64() < p {
				cand = append(cand, g.Right(r))
			}
		}
		for _, v := range []int{0, 1} {
			var want []int
			for _, c := range cand {
				if g.HasEdge(v, c) {
					want = append(want, c)
				}
			}
			if got := intersectAdj(g, slices.Clone(cand), v); !slices.Equal(got, want) {
				t.Fatalf("trial %d, vertex %d, %d candidates: got %v, want %v", trial, v, len(cand), got, want)
			}
		}
	}
}
