package main

import (
	_ "embed"
	"encoding/json"
	"fmt"

	"repro/mbb"
)

// golden holds the optimum sizes of the seed-1 inputs, computed once
// with solvers other than the ones the workloads run (see golden_test.go,
// which regenerates the file with -update).
type golden struct {
	Dense  []int            `json:"dense"`  // per dense instance, in input order
	Sparse map[string]int   `json:"sparse"` // per stand-in
	Serve  map[string][]int `json:"serve"`  // per graph: the optimum, then the top-2 sizes
	Churn  struct {
		Batches int `json:"batches"` // stream length Final applies to
		Base    int `json:"base"`
		Final   int `json:"final"`
	} `json:"churn"`
}

//go:embed testdata/golden.json
var goldenJSON []byte

// loadGolden decodes the embedded golden file.
func loadGolden() (golden, error) {
	var g golden
	err := json.Unmarshal(goldenJSON, &g)
	return g, err
}

// useGolden reports whether this run's inputs are the ones golden.json
// describes: seed 1 at full size.
func (r *run) useGolden() bool { return r.seed == 1 && !r.short }

// validWitness reports whether bc is a balanced biclique of g with size
// vertices per side.
func validWitness(g *mbb.Graph, bc mbb.Biclique, size int) bool {
	return len(bc.A) == size && len(bc.B) == size && bc.IsBicliqueOf(g)
}

// validLocal is validWitness for a witness in side-local indices, the
// form the daemon reports.
func validLocal(g *mbb.Graph, a, b []int, size int) bool {
	if len(a) != size || len(b) != size {
		return false
	}
	bc := mbb.Biclique{A: make([]int, size), B: make([]int, size)}
	for i := range a {
		if a[i] < 0 || a[i] >= g.NL() || b[i] < 0 || b[i] >= g.NR() {
			return false
		}
		bc.A[i], bc.B[i] = a[i], g.NL()+b[i]
	}
	return bc.IsBicliqueOf(g)
}

// sameEdges reports whether two graphs have the same shape and edge set.
func sameEdges(g, h *mbb.Graph) error {
	if g.NL() != h.NL() || g.NR() != h.NR() || g.NumEdges() != h.NumEdges() {
		return fmt.Errorf("shape %dx%d/%d edges vs %dx%d/%d edges", g.NL(), g.NR(), g.NumEdges(), h.NL(), h.NR(), h.NumEdges())
	}
	ge, he := g.Edges(), h.Edges()
	for i := range ge {
		if ge[i] != he[i] {
			return fmt.Errorf("edge %d differs: %v vs %v", i, ge[i], he[i])
		}
	}
	return nil
}
