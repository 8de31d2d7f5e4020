package main

import (
	"context"
	"encoding/json"
	"flag"
	"os"
	"testing"
	"time"

	"repro/mbb"
)

var update = flag.Bool("update", false, "regenerate testdata/golden.json")

// independent solves g with the sparse framework and no planner: not
// the path the workloads time (the planner, and the dense solver on the
// dense instances), so golden.json checks one solver against another.
func independent(t *testing.T, g *mbb.Graph, topK int) []int {
	t.Helper()
	res, err := mbb.SolveContext(context.Background(), g, &mbb.Options{Solver: "hbvMBB", Reduce: mbb.ReduceOff, Workers: 2, TopK: topK})
	if err != nil || !res.Exact {
		t.Fatalf("independent solve: exact %v, err %v", res.Exact, err)
	}
	if topK <= 1 {
		return []int{res.Biclique.Size()}
	}
	var sizes []int
	for _, bc := range res.Bicliques {
		sizes = append(sizes, bc.Size())
	}
	return sizes
}

// TestGolden checks that golden.json covers the seed-1 inputs of every
// workload; with -update it first recomputes the file.
func TestGolden(t *testing.T) {
	if *update {
		var gold golden
		for _, g := range denseInputs(1, 250) {
			gold.Dense = append(gold.Dense, independent(t, g, 1)[0])
		}
		gold.Sparse = make(map[string]int)
		for i, name := range sparseSuite {
			g, _ := standIn(name, 100_000, subSeed(1, i))
			gold.Sparse[name] = independent(t, g, 1)[0]
		}
		graphs, err := serveInputs(1, serveVerts)
		if err != nil {
			t.Fatal(err)
		}
		gold.Serve = make(map[string][]int)
		for _, sv := range graphs {
			gold.Serve[sv.name] = independent(t, sv.g, 1)
			if sv.set.Optimum <= topKMaxOptimum {
				gold.Serve[sv.name] = append(gold.Serve[sv.name], independent(t, sv.g, 2)...)
			}
		}
		m, err := readManifest()
		if err != nil {
			t.Fatal(err)
		}
		// The stream length of a run of BENCHMARK.json's run_seconds.
		n := int(churnRate * (time.Duration(m.RunSeconds) * time.Second * 8 / 10).Seconds())
		base, batches, err := churnStream(1, churnSide, n)
		if err != nil {
			t.Fatal(err)
		}
		g := base
		for _, d := range batches {
			if g, _, err = g.Apply(d); err != nil {
				t.Fatal(err)
			}
		}
		gold.Churn.Batches = n
		gold.Churn.Base = independent(t, base, 1)[0]
		gold.Churn.Final = independent(t, g, 1)[0]
		data, err := json.Marshal(gold)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("testdata/golden.json", append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		goldenJSON = data
	}
	gold, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	if len(gold.Dense) != 250*len(denseDensities) || len(gold.Sparse) != len(sparseSuite) ||
		len(gold.Serve) != serveCopies*len(serveDatasets) || gold.Churn.Batches == 0 || gold.Churn.Final == 0 {
		t.Fatalf("golden.json does not cover the seed-1 inputs; regenerate with go test -run TestGolden -update")
	}
}
