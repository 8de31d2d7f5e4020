// Benchmarks regenerating the paper's evaluation, one benchmark family
// per table and figure. Sizes are trimmed so `go test -bench=.` finishes
// in minutes; cmd/mbbbench runs the full-scale sweeps with configurable
// budgets and prints the tables in the paper's layout.
//
// Solver-level benchmarks go through the mbb registry (mbb.Options.Solver)
// so they measure exactly what library users run; substrate benchmarks
// (bitsets, decompositions, matrix construction) call the internal
// packages directly.
package repro

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/baseline"
	"repro/internal/bigraph"
	"repro/internal/core"
	"repro/internal/decomp"
	"repro/internal/dense"
	"repro/internal/heur"
	"repro/internal/sparse"
	"repro/internal/workload"
	"repro/mbb"
)

// benchBudget bounds each solve inside a benchmark iteration so a single
// pathological instance cannot stall the whole suite.
const benchBudget = 10 * time.Second

// benchExec returns a fresh execution context with the benchmark budget.
func benchExec() *core.Exec {
	return core.NewExec(nil, core.Limits{Timeout: benchBudget})
}

// solveNamed runs one registry solver under the benchmark budget,
// skipping the benchmark if the budget is exhausted.
func solveNamed(b *testing.B, solver string, g *mbb.Graph, opt mbb.Options) {
	b.Helper()
	opt.Solver = solver
	opt.Timeout = benchBudget
	res, err := mbb.Solve(g, &opt)
	if err != nil {
		b.Fatal(err)
	}
	if !res.Exact {
		b.Skip("budget exhausted at this size")
	}
}

// --- Table 4: efficiency on dense bipartite graphs -----------------------

// BenchmarkTable4DenseMBB measures denseMBB (Algorithm 3) across the
// paper's density sweep.
func BenchmarkTable4DenseMBB(b *testing.B) {
	for _, n := range []int{32, 64} {
		for _, d := range []float64{0.70, 0.80, 0.90, 0.95} {
			b.Run(fmt.Sprintf("n=%d/density=%.2f", n, d), func(b *testing.B) {
				g := workload.Dense(n, n, d, 42)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					solveNamed(b, "denseMBB", g, mbb.Options{})
				}
			})
		}
	}
}

// BenchmarkTable4ExtBBCL measures the prior state of the art [31] on the
// same instances (smaller sizes: it times out far earlier, exactly as in
// the paper).
func BenchmarkTable4ExtBBCL(b *testing.B) {
	for _, n := range []int{16, 32} {
		for _, d := range []float64{0.70, 0.90} {
			b.Run(fmt.Sprintf("n=%d/density=%.2f", n, d), func(b *testing.B) {
				g := workload.Dense(n, n, d, 42)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					solveNamed(b, "extBBCL", g, mbb.Options{})
				}
			})
		}
	}
}

// --- Table 5: efficiency on sparse bipartite graphs ----------------------

// table5Sets is a representative subset spanning easy (S1) and tough (S3)
// datasets; -bench full sweeps are run via cmd/mbbbench.
var table5Sets = []string{"unicodelang", "escorts", "jester", "github", "dbpedia-genre", "pics-ut"}

// BenchmarkTable5HbvMBB measures the paper's framework per dataset.
func BenchmarkTable5HbvMBB(b *testing.B) {
	for _, name := range table5Sets {
		d, _ := workload.ByName(name)
		b.Run(name, func(b *testing.B) {
			g := d.Generate(20000, 1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				solveNamed(b, "hbvMBB", g, mbb.Options{})
			}
		})
	}
}

// BenchmarkTable5Adp3 measures the strongest composed baseline (SBMNAS +
// core bound + FMBE), the paper's runner-up.
func BenchmarkTable5Adp3(b *testing.B) {
	for _, name := range table5Sets {
		d, _ := workload.ByName(name)
		b.Run(name, func(b *testing.B) {
			g := d.Generate(20000, 1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				solveNamed(b, "adp3", g, mbb.Options{})
			}
		})
	}
}

// BenchmarkTable5ExtBBCL measures the prior exact algorithm on the same
// stand-ins.
func BenchmarkTable5ExtBBCL(b *testing.B) {
	for _, name := range []string{"unicodelang", "escorts", "github"} {
		d, _ := workload.ByName(name)
		b.Run(name, func(b *testing.B) {
			g := d.Generate(20000, 1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				solveNamed(b, "extBBCL", g, mbb.Options{})
			}
		})
	}
}

// --- Table 6: ablation variants on tough datasets -------------------------

// BenchmarkTable6Variants measures hbvMBB against its ablations (bd1: no
// heuristic step; bd2: no core/bicore optimisations; bd3: basicBB instead
// of denseMBB; bd4/bd5: weaker total orders) on tough stand-ins.
func BenchmarkTable6Variants(b *testing.B) {
	variants := []string{"hbvMBB", "bd1", "bd2", "bd3", "bd4", "bd5"}
	for _, dsName := range []string{"github", "pics-ut"} {
		d, _ := workload.ByName(dsName)
		g := d.Generate(15000, 1)
		for _, v := range variants {
			b.Run(dsName+"/"+v, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					solveNamed(b, v, g, mbb.Options{})
				}
			})
		}
	}
}

// BenchmarkTable6Decompositions measures the degOrder and bdegOrder
// overhead columns of Table 6.
func BenchmarkTable6Decompositions(b *testing.B) {
	d, _ := workload.ByName("github")
	g := d.Generate(20000, 1)
	b.Run("degOrder", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			decomp.Cores(g)
		}
	})
	b.Run("bdegOrder", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			decomp.BicoresFast(g)
		}
	})
	b.Run("bdegOrderExact", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			decomp.Bicores(g)
		}
	})
}

// --- Figure 4: heuristic effectiveness ------------------------------------

// BenchmarkFig4Heuristics measures the two heuristic layers whose quality
// gap Figure 4 reports: the global step-1 heuristic (hMBB) and the full
// pipeline including the local step-2 heuristics.
func BenchmarkFig4Heuristics(b *testing.B) {
	d, _ := workload.ByName("pics-ut")
	g := d.Generate(15000, 1)
	b.Run("heuGlobal", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sparse.HeuristicOnly(benchExec(), g, sparse.DefaultOptions())
		}
	})
	b.Run("greedyDegree", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			heur.Greedy(g, nil, 8)
		}
	})
	b.Run("POLS", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			heur.LocalSearch(benchExec(), g, heur.POLSDefaults())
		}
	})
	b.Run("SBMNAS", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			heur.LocalSearch(benchExec(), g, heur.SBMNASDefaults())
		}
	})
}

// --- Figure 5: search depth per total order --------------------------------

// BenchmarkFig5Orders measures full solves under the three total search
// orders; the depth statistics Figure 5 plots are byproducts of these
// runs (cmd/mbbbench -exp fig5 prints them).
func BenchmarkFig5Orders(b *testing.B) {
	d, _ := workload.ByName("github")
	g := d.Generate(15000, 1)
	for _, kind := range []decomp.OrderKind{decomp.OrderDegree, decomp.OrderDegeneracy, decomp.OrderBidegeneracy} {
		b.Run(kind.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				solveNamed(b, "hbvMBB", g, mbb.Options{Order: kind})
			}
		})
	}
}

// --- Figure 6: vertex-centred subgraph construction -------------------------

// BenchmarkFig6VertexCentred measures the order computation plus
// vertex-centred subgraph extraction cost that Figure 6's density
// comparison rests on (isolated from the exhaustive search).
func BenchmarkFig6VertexCentred(b *testing.B) {
	d, _ := workload.ByName("github")
	g := d.Generate(15000, 1)
	for _, kind := range []decomp.OrderKind{decomp.OrderDegree, decomp.OrderDegeneracy, decomp.OrderBidegeneracy} {
		b.Run(kind.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				order := decomp.Order(g, kind)
				pos := make([]int, g.NumVertices())
				for j, v := range order {
					pos[v] = j
				}
				th := decomp.NewTwoHop(g)
				var kept, nbuf []int
				for j, v := range order {
					kept = kept[:0]
					nbuf = th.Append(v, nil, nbuf[:0])
					for _, w := range nbuf {
						if pos[w] > j {
							kept = append(kept, w)
						}
					}
				}
			}
		})
	}
}

// --- Microbenchmarks for the core substrates -------------------------------

// BenchmarkDynamicMBB isolates Algorithm 2 on a worst-case shape: a
// near-complete graph whose complement is one long cycle.
func BenchmarkDynamicMBB(b *testing.B) {
	for _, n := range []int{64, 256} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			m := dense.NewMatrix(n, n)
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					if j != i && j != (i+1)%n {
						m.AddEdge(i, j)
					}
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dense.Solve(nil, m, dense.Options{Mode: dense.ModeDense})
			}
		})
	}
}

// BenchmarkTwoHop measures the N≤2 kernel underlying bicore decomposition.
func BenchmarkTwoHop(b *testing.B) {
	g := workload.PowerLaw(20000, 10000, 80000, 0.5, 3)
	th := decomp.NewTwoHop(g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := i % g.NumVertices()
		th.Size(v, nil)
	}
}

// BenchmarkBruteForceOracle tracks the testing oracle's cost envelope.
func BenchmarkBruteForceOracle(b *testing.B) {
	g := workload.Dense(14, 14, 0.5, 9)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		baseline.BruteForce(g)
	}
}

// BenchmarkGraphBuild measures CSR construction throughput.
func BenchmarkGraphBuild(b *testing.B) {
	edges := workload.PowerLaw(50000, 50000, 400000, 0.5, 5).Edges()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bl := bigraph.NewBuilder(50000, 50000)
		for _, e := range edges {
			bl.AddEdge(e[0], e[1])
		}
		bl.Build()
	}
}

// BenchmarkGraphApply measures the copy-on-write delta path behind the
// mbbserved edge-mutation endpoints against a from-scratch rebuild: for
// a small batch, Apply is a flat CSR copy plus a per-touched-vertex
// merge, while the rebuild pays the full edge sort again.
func BenchmarkGraphApply(b *testing.B) {
	g := workload.PowerLaw(20000, 20000, 160000, 0.5, 5)
	edges := g.Edges()
	b.Run("delta8", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			d := bigraph.Delta{
				Del: [][2]int{edges[i%len(edges)], edges[(i*7+1)%len(edges)],
					edges[(i*13+2)%len(edges)], edges[(i*29+3)%len(edges)]},
				Add: [][2]int{{i % 20000, (i * 31) % 20000}, {(i * 3) % 20000, (i * 37) % 20000},
					{(i * 5) % 20000, (i * 41) % 20000}, {(i * 11) % 20000, (i * 43) % 20000}},
			}
			if _, _, err := g.Apply(d); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("rebuild", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			bl := bigraph.NewBuilder(20000, 20000)
			for _, e := range edges {
				bl.AddEdge(e[0], e[1])
			}
			bl.Build()
		}
	})
}

// --- Ablations of the engineered design choices (DESIGN.md §3) -------------

// BenchmarkAblationBounds quantifies each added pruning device on a dense
// instance: the full solver versus dropping the degree-profile bound, the
// complement-matching bound, or the greedy incumbent seed.
func BenchmarkAblationBounds(b *testing.B) {
	g := workload.Dense(48, 48, 0.9, 42)
	m := dense.FromBigraph(g)
	cases := []struct {
		name string
		opt  dense.Options
	}{
		{"full", dense.Options{Mode: dense.ModeDense}},
		{"noProfileBound", dense.Options{Mode: dense.ModeDense, DisableProfileBound: true}},
		{"noMatchingBound", dense.Options{Mode: dense.ModeDense, DisableMatchingBound: true}},
		{"noGreedySeed", dense.Options{Mode: dense.ModeDense, DisableGreedySeed: true}},
		{"basicBB", dense.Options{Mode: dense.ModeBasic}},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := dense.Solve(benchExec(), m, c.opt)
				if res.Stats.TimedOut {
					b.Skip("budget exhausted")
				}
			}
		})
	}
}

// BenchmarkParallelVerify measures the streaming worker-pool pipeline of
// steps 2+3.
func BenchmarkParallelVerify(b *testing.B) {
	d, _ := workload.ByName("pics-ut")
	g := d.Generate(15000, 1)
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				solveNamed(b, "hbvMBB", g, mbb.Options{Workers: workers})
			}
		})
	}
}

// BenchmarkMaxEdge and BenchmarkMaxVertex track the extension solvers.
func BenchmarkMaxEdge(b *testing.B) {
	g := workload.Dense(32, 32, 0.7, 7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mbb.SolveMaxEdge(g, benchBudget)
	}
}

func BenchmarkMaxVertex(b *testing.B) {
	g := workload.Dense(256, 256, 0.5, 7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mbb.SolveMaxVertex(g)
	}
}

// BenchmarkEnumerateMaximal tracks the full enumeration substrate.
func BenchmarkEnumerateMaximal(b *testing.B) {
	g := workload.PowerLaw(2000, 2000, 10000, 0.5, 11)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		baseline.EnumerateMaximal(benchExec(), g, func(A, B []int) bool { return true })
	}
}
