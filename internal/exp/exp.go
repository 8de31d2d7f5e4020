// Package exp is the experiment harness: it regenerates every table and
// figure of the paper's evaluation (Section 6) on the synthetic workloads
// of internal/workload and prints them in the paper's layout. Absolute
// numbers differ from the paper (different hardware, language and data
// stand-ins); the harness exists to reproduce the qualitative shape: who
// wins, by what order of magnitude, and where the crossovers fall.
//
// Solvers are resolved through the mbb registry (mbb.Lookup), so the
// harness measures exactly what library users run; each run gets a fresh
// core.Exec carrying the per-run budget. An optional Recorder captures
// every timed run as a structured Record for JSON export
// (cmd/mbbbench -json). Trajectory solves a pinned, seeded subset whose
// search-node counts CompareRecords gates across commits.
package exp

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

	"repro/internal/bigraph"
	"repro/internal/core"
	"repro/internal/workload"
	"repro/mbb"
)

// Config controls workload scale and per-run budgets. Zero values select
// the defaults of DefaultConfig.
type Config struct {
	W io.Writer

	// Budget is the per-algorithm-run timeout (the paper used 4 hours;
	// the default here is far smaller so the suite completes quickly).
	Budget time.Duration

	// MaxVerts caps the generated vertex count of each sparse dataset
	// stand-in (the documented scale-down).
	MaxVerts int

	// DenseSizes and DenseDensities define the Table 4 sweep.
	DenseSizes     []int
	DenseDensities []float64
	// DenseInstances is the number of random instances averaged per cell
	// (the paper used 100).
	DenseInstances int

	// Datasets restricts Tables 5/6 and the figures to the named
	// datasets; nil means all (Table 5) / the tough subset (Table 6 and
	// figures).
	Datasets []string

	// Workers is passed to the sparse framework's verification pipeline
	// and the planner's component solves (0 keeps both sequential, the
	// paper's schedule).
	Workers int

	// Reduce selects the planner mode passed to every run (the default,
	// mbb.ReduceAuto, keeps explicitly named solvers planner-free so the
	// paper's numbers are measured unchanged; mbb.ReduceOn measures every
	// solver behind the reduce-and-conquer planner).
	Reduce mbb.Reduce

	// Recorder, when non-nil, collects a Record per timed solver run.
	Recorder *Recorder

	Seed int64
}

// DefaultConfig returns a configuration sized to finish in a few minutes.
func DefaultConfig(w io.Writer) Config {
	return Config{
		W:              w,
		Budget:         20 * time.Second,
		MaxVerts:       30000,
		DenseSizes:     []int{32, 64, 128},
		DenseDensities: []float64{0.70, 0.75, 0.80, 0.85, 0.90, 0.95},
		DenseInstances: 3,
		Seed:           1,
	}
}

func (c *Config) fill() {
	def := DefaultConfig(c.W)
	if c.Budget == 0 {
		c.Budget = def.Budget
	}
	if c.MaxVerts == 0 {
		c.MaxVerts = def.MaxVerts
	}
	if len(c.DenseSizes) == 0 {
		c.DenseSizes = def.DenseSizes
	}
	if len(c.DenseDensities) == 0 {
		c.DenseDensities = def.DenseDensities
	}
	if c.DenseInstances == 0 {
		c.DenseInstances = def.DenseInstances
	}
	if c.Seed == 0 {
		c.Seed = def.Seed
	}
}

// Record is one measured solver run, the unit of the -json export.
type Record struct {
	Exp      string  `json:"exp"`               // "table4", "fig5", ...
	Dataset  string  `json:"dataset"`           // dataset name or dense-cell label
	Solver   string  `json:"solver"`            // registry solver name
	Seconds  float64 `json:"seconds"`           // wall-clock run time
	TimedOut bool    `json:"timed_out"`         // budget expired (the paper's "-")
	Size     int     `json:"size"`              // balanced biclique size found
	Nodes    int64   `json:"nodes,omitempty"`   // search nodes spent
	Step     string  `json:"step,omitempty"`    // S1/S2/S3 for the sparse framework
	Workers  int     `json:"workers,omitempty"` // verification pipeline width

	// Allocation profile of the run (runtime.ReadMemStats deltas around
	// the solve, covering all of its goroutines). Heap telemetry for the
	// bench trajectory, not a gated number: counts are deterministic only
	// up to scheduling, so the gate stays on Nodes.
	AllocsPerOp int64 `json:"allocs_per_op,omitempty"` // heap allocations during the run
	BytesPerOp  int64 `json:"bytes_per_op,omitempty"`  // bytes allocated during the run

	// Planner fields, nonzero only when the reduce-and-conquer planner ran.
	Reduce     string `json:"reduce,omitempty"`     // planner mode ("on"; omitted when off)
	Tau        int    `json:"tau,omitempty"`        // heuristic seed lower bound
	Peeled     int64  `json:"peeled,omitempty"`     // vertices removed by reduction
	Components int    `json:"components,omitempty"` // components handed to the solvers
}

// Recorder collects Records across experiments; safe for concurrent use.
type Recorder struct {
	mu      sync.Mutex
	records []Record
}

// NewRecorder returns an empty Recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// Records returns a copy of everything recorded so far.
func (r *Recorder) Records() []Record {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Record(nil), r.records...)
}

func (r *Recorder) add(rec Record) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.records = append(r.records, rec)
	r.mu.Unlock()
}

// selectDatasets resolves the dataset list against a default pool.
func (c *Config) selectDatasets(pool []workload.Dataset) []workload.Dataset {
	if len(c.Datasets) == 0 {
		return pool
	}
	var out []workload.Dataset
	for _, name := range c.Datasets {
		if d, ok := workload.ByName(name); ok {
			out = append(out, d)
		}
	}
	return out
}

// runSolver resolves name in the mbb registry, runs it through
// mbb.SolveContext — so the run takes exactly the path library users take,
// including the reduce-and-conquer planner when Config.Reduce enables
// it — under the per-run budget, records the run, and returns the elapsed
// seconds, result and timeout flag.
func (c *Config) runSolver(expName, dataset, name string, g *bigraph.Graph, opt *mbb.Options) (float64, core.Result, bool, error) {
	spec, ok := mbb.Lookup(name)
	if !ok {
		return 0, core.Result{}, false, fmt.Errorf("exp: unknown solver %q", name)
	}
	if opt == nil {
		opt = &mbb.Options{}
	}
	o := *opt
	if o.Workers == 0 {
		o.Workers = c.Workers
	}
	o.Solver = spec.Name
	o.Timeout = c.Budget
	if o.Reduce == mbb.ReduceAuto {
		o.Reduce = c.Reduce
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	sres, err := mbb.SolveContext(context.Background(), g, &o)
	if err != nil {
		return 0, core.Result{}, false, err
	}
	secs := time.Since(start).Seconds()
	runtime.ReadMemStats(&m1)
	res := core.Result{Biclique: sres.Biclique, Stats: sres.Stats}
	timedOut := res.Stats.TimedOut
	rec := Record{
		Exp: expName, Dataset: dataset, Solver: spec.Name,
		Seconds: secs, TimedOut: timedOut, Size: res.Biclique.Size(),
		Nodes: res.Stats.Nodes, Step: stepLabel(res.Stats.Step), Workers: o.Workers,
		Tau: res.Stats.SeedTau, Peeled: res.Stats.Peeled, Components: res.Stats.Components,
		AllocsPerOp: int64(m1.Mallocs - m0.Mallocs), BytesPerOp: int64(m1.TotalAlloc - m0.TotalAlloc),
	}
	if sres.Reduced {
		rec.Reduce = "on"
	}
	c.Recorder.add(rec)
	return secs, res, timedOut, nil
}

func stepLabel(s core.Step) string {
	if s == core.StepNone {
		return ""
	}
	return s.String()
}

// cell formats a timing cell, printing "-" on timeout like the paper.
func cell(secs float64, timedOut bool) string {
	if timedOut {
		return "-"
	}
	switch {
	case secs < 0.01:
		return fmt.Sprintf("%.4f", secs)
	case secs < 1:
		return fmt.Sprintf("%.3f", secs)
	default:
		return fmt.Sprintf("%.2f", secs)
	}
}

// generate builds the seeded stand-in for dataset d.
func (c *Config) generate(d workload.Dataset) *bigraph.Graph {
	return d.Generate(c.MaxVerts, c.Seed)
}
