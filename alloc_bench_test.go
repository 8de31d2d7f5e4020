// Allocation benchmarks for the hot paths the zero-alloc work targets:
// steady-state dense solving on a recycled execution context, serving
// solves from a cached plan, building the plan, and repairing it across
// an insertion batch. Each reports allocs/op (run with -benchmem), and
// TestAllocBudgets pins a ceiling on every one so CI fails when a hot
// path starts allocating again — the benchmark half of the bench gate,
// complementing the node-count trajectory in BENCH_*.json.
package repro

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"repro/internal/bigraph"
	"repro/internal/core"
	"repro/internal/dense"
	"repro/internal/server"
	"repro/internal/workload"
	"repro/mbb"
)

// benchDenseSteady returns a warmed (exec, matrix) pair: the incumbent
// already holds the optimum, so every further solve is the steady-state
// re-verification the serving layer performs — and must not allocate.
func benchDenseSteady() (*core.Exec, *dense.Matrix) {
	ex := core.NewExec(nil, core.Limits{})
	m := dense.FromBigraph(workload.Dense(40, 40, 0.85, 7))
	dense.Solve(ex, m, dense.Options{})
	return ex, m
}

func BenchmarkAllocSolveDenseSteady(b *testing.B) {
	// One solve takes about a second, so b.N is 1 and the count is
	// process-wide: an OS thread the runtime starts meanwhile for the
	// idle second P (6 mallocs in allocm) read as 6 allocs/op. The solve
	// is sequential; on one P the runtime has no idle P to start a
	// thread for, and the solver's own allocations still all count.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	ex, m := benchDenseSteady()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dense.Solve(ex, m, dense.Options{})
	}
}

// benchPlanGraph is the cached-plan workload: a sparse stand-in small
// enough that plan solves are quick but real.
func benchPlanGraph() *mbb.Graph {
	d, _ := workload.ByName("github")
	return d.Generate(8000, 1)
}

func BenchmarkAllocPlanBuild(b *testing.B) {
	g := benchPlanGraph()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mbb.PlanContext(context.Background(), g); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAllocPlanSolve(b *testing.B) {
	p, err := mbb.PlanContext(context.Background(), benchPlanGraph())
	if err != nil {
		b.Fatal(err)
	}
	opt := &mbb.Options{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.SolveContext(context.Background(), opt); err != nil {
			b.Fatal(err)
		}
	}
}

// benchRepairSetup builds a plan and an insertion batch that the bounded
// local repair absorbs (rather than rejecting into a rebuild).
func benchRepairSetup(b *testing.B) (*mbb.Plan, *mbb.Graph, mbb.Delta) {
	b.Helper()
	g := benchPlanGraph()
	p, err := mbb.PlanContext(context.Background(), g)
	if err != nil {
		b.Fatal(err)
	}
	// A non-edge insertion: scan for the first absent pair.
	var d mbb.Delta
	for l := 0; l < g.NL() && d.Empty(); l++ {
		for r := 0; r < g.NR(); r++ {
			if !g.HasEdge(l, g.NL()+r) {
				d = mbb.Delta{Add: [][2]int{{l, r}}}
				break
			}
		}
	}
	g2, eff, err := g.Apply(d)
	if err != nil {
		b.Fatal(err)
	}
	if _, ok := p.ApplyDelta(g2, eff, 1); !ok {
		b.Skip("repair refused on this instance; benchmark needs the repair path")
	}
	return p, g2, eff
}

// nopResponseWriter is a reusable ResponseWriter so the middleware
// benchmark measures the instrumentation, not the recorder.
type nopResponseWriter struct{ h http.Header }

func (w *nopResponseWriter) Header() http.Header         { return w.h }
func (w *nopResponseWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *nopResponseWriter) WriteHeader(int)             {}

// BenchmarkAllocPlanSolveK1 is BenchmarkAllocPlanSolve with TopK set to
// 1 explicitly: the query refactor's k = 1 degeneration must be the same
// scalar fast path — no list, no heap, no extra allocations — so it
// shares plan-solve's budget in TestAllocBudgets.
func BenchmarkAllocPlanSolveK1(b *testing.B) {
	p, err := mbb.PlanContext(context.Background(), benchPlanGraph())
	if err != nil {
		b.Fatal(err)
	}
	opt := &mbb.Options{TopK: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := p.SolveContext(context.Background(), opt)
		if err != nil {
			b.Fatal(err)
		}
		if res.Bicliques != nil {
			b.Fatal("k=1 solve allocated a list")
		}
	}
}

// BenchmarkAllocPlanSolveK2 is BenchmarkAllocPlanSolve with TopK 2: the
// scalar solve plus the top-k tail's sweeps — peel, components, and the
// maximal-biclique kernels with their per-call arenas.
func BenchmarkAllocPlanSolveK2(b *testing.B) {
	p, err := mbb.PlanContext(context.Background(), benchPlanGraph())
	if err != nil {
		b.Fatal(err)
	}
	opt := &mbb.Options{TopK: 2}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.SolveContext(context.Background(), opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAllocServeMiddleware pins the serving-path instrumentation —
// metrics + ring access log + panic recovery — at zero allocations per
// request, covering the solve submit path the issue gates. (RequestID
// and Timeout sit outside this budget: context.WithValue/WithTimeout
// allocate by design.)
func BenchmarkAllocServeMiddleware(b *testing.B) {
	m := server.NewMetrics()
	rl := server.NewRingLogger(nil, 1024)
	defer rl.Close()
	h := server.Chain(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusAccepted)
	}), server.Instrument(m, rl), server.Recover(m))
	w := &nopResponseWriter{h: make(http.Header)}
	req := httptest.NewRequest(http.MethodPost, "/graphs/bench/jobs", nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.ServeHTTP(w, req)
	}
}

// BenchmarkAllocUploadParse parses the text upload body of the cached
// plan workload's graph, as the graph PUT handler does at the daemon's
// default vertex cap: the per-call buffers and the graph, nothing per
// line.
func BenchmarkAllocUploadParse(b *testing.B) {
	var body bytes.Buffer
	if err := mbb.WriteGraph(&body, benchPlanGraph()); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bigraph.ReadLimited(bytes.NewReader(body.Bytes()), 10_000_000); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAllocPlanRepair(b *testing.B) {
	p, g2, eff := benchRepairSetup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := p.ApplyDelta(g2, eff, 1); !ok {
			b.Fatal("repair refused mid-benchmark")
		}
	}
}

// TestAllocBudgets is the CI allocation gate: each hot path must stay
// under its pinned allocs/op ceiling. Ceilings are generous (≈2x the
// observed steady state) so scheduler noise does not flake the gate,
// but tight enough that an accidental per-node or per-vertex allocation
// — which multiplies counts by orders of magnitude — always trips it.
// The plan build and the top-2 plan solve also have a bytes/op ceiling,
// by the same rule: their allocation counts do not grow with the graph,
// but a table as long as the graph allocated per build or per sweep
// multiplies their bytes. The bytes ceilings are checked without the
// race detector only (see raceEnabled); CI's allocation step runs
// without it.
func TestAllocBudgets(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation gate is not meaningful with -short's trimmed iteration counts")
	}
	for _, tc := range []struct {
		name    string
		ceiling int64
		bytes   int64 // bytes/op ceiling without -race; 0 pins none
		bench   func(b *testing.B)
	}{
		// The dense steady state and the serving middleware are the
		// zero-alloc acceptances themselves; their ceiling of 0 is the
		// point, not headroom.
		// Observed on the reference setup: build 292 (55 KB), solve 271,
		// top-2 solve 596 (133 KB), repair 11, upload parse 10.
		{"dense-steady", 0, 0, BenchmarkAllocSolveDenseSteady},
		{"serve-middleware", 0, 0, BenchmarkAllocServeMiddleware},
		{"plan-build", 650, 110_000, BenchmarkAllocPlanBuild},
		{"plan-solve", 1000, 0, BenchmarkAllocPlanSolve},
		{"plan-solve-k1", 1000, 0, BenchmarkAllocPlanSolveK1},
		{"plan-solve-k2", 1500, 270_000, BenchmarkAllocPlanSolveK2},
		{"plan-repair", 100, 0, BenchmarkAllocPlanRepair},
		{"upload-parse", 20, 0, BenchmarkAllocUploadParse},
	} {
		r := testing.Benchmark(tc.bench)
		got, bytes := r.AllocsPerOp(), r.AllocedBytesPerOp()
		switch {
		case got > tc.ceiling:
			t.Errorf("%s: %d allocs/op exceeds the pinned ceiling %d", tc.name, got, tc.ceiling)
		case tc.bytes > 0 && !raceEnabled && bytes > tc.bytes:
			t.Errorf("%s: %d bytes/op exceeds the pinned ceiling %d", tc.name, bytes, tc.bytes)
		default:
			t.Logf("%s: %d allocs/op (ceiling %d), %d bytes/op", tc.name, got, tc.ceiling, bytes)
		}
	}
}
