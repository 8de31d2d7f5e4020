// Command mbbbench regenerates the paper's tables and figures on the
// synthetic workloads, and runs the pinned node-count trajectory that
// gates CI.
//
// Usage:
//
//	mbbbench -exp table4|table5|table6|fig4|fig5|fig6|trajectory|all
//	         [-budget 20s] [-maxverts 30000] [-instances 3]
//	         [-sizes 32,64,128] [-densities 0.7,0.8,0.9,0.95]
//	         [-datasets github,jester] [-seed 1] [-workers 4]
//	         [-reduce auto|on|off] [-json] [-baseline BENCH_n.json]
//
// -exp trajectory is the CI benchmark trajectory: pinned sequential
// solves with deterministic search-node counts; with -baseline FILE the
// node counts gate against a previous -json export and a >2x regression
// exits nonzero (after the JSON is written). "all" runs only the paper
// artifacts and excludes the trajectory. The serving layer is
// benchmarked by bench/ (bash bench/run.sh), not here.
//
// With -json the human-readable tables go to standard error and a JSON
// array of per-run records — one object per (experiment, dataset, solver)
// timing, with the measured size, node count and S1/S2/S3 step — goes to
// standard output, so benchmark trajectories can be captured
// reproducibly:
//
//	mbbbench -exp table5 -json > BENCH_table5.json
//
// Absolute times differ from the paper (different hardware, language and
// synthetic data); the qualitative shapes — who wins and where the "-"
// timeouts appear — are the reproduction target. See EXPERIMENTS.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/exp"
	"repro/mbb"
)

func main() {
	expFlag := flag.String("exp", "all", "experiment: table4, table5, table6, fig4, fig5, fig6, trajectory, all")
	budget := flag.Duration("budget", 20*time.Second, "per-run budget (the paper used 4h)")
	maxVerts := flag.Int("maxverts", 30000, "sparse dataset scale cap")
	instances := flag.Int("instances", 3, "random instances per Table 4 cell")
	sizes := flag.String("sizes", "32,64,128", "Table 4 side sizes")
	densities := flag.String("densities", "0.70,0.75,0.80,0.85,0.90,0.95", "Table 4 densities")
	datasets := flag.String("datasets", "", "comma-separated dataset subset (default: all)")
	seed := flag.Int64("seed", 1, "random seed")
	workers := flag.Int("workers", 0, "sparse verification pipeline / planner goroutines (0/1 sequential; negative rejected)")
	reduceFlag := flag.String("reduce", "auto", "reduce-and-conquer planner: auto (off for named solvers), on, off")
	jsonOut := flag.Bool("json", false, "emit per-run timing records as JSON on stdout (tables move to stderr)")
	baseline := flag.String("baseline", "", "previous -json export to gate node counts against (>2x regression fails)")
	flag.Parse()

	out := os.Stdout
	if *jsonOut {
		out = os.Stderr
	}
	cfg := exp.DefaultConfig(out)
	cfg.Budget = *budget
	cfg.MaxVerts = *maxVerts
	cfg.DenseInstances = *instances
	cfg.Seed = *seed
	cfg.Workers = *workers
	reduce, ok := mbb.ParseReduce(*reduceFlag)
	if !ok {
		fatal(fmt.Errorf("unknown -reduce mode %q (want auto, on or off)", *reduceFlag))
	}
	cfg.Reduce = reduce
	cfg.DenseSizes = parseInts(*sizes)
	cfg.DenseDensities = parseFloats(*densities)
	if *datasets != "" {
		cfg.Datasets = strings.Split(*datasets, ",")
	}
	if *jsonOut || *baseline != "" {
		cfg.Recorder = exp.NewRecorder()
	}

	runs := map[string]func(exp.Config) error{
		"table4":     exp.Table4,
		"table5":     exp.Table5,
		"table6":     exp.Table6,
		"fig4":       exp.Fig4,
		"fig5":       exp.Fig5,
		"fig6":       exp.Fig6,
		"trajectory": exp.Trajectory,
	}
	// The trajectory is a CI gate rather than a paper artifact, so "all"
	// deliberately excludes it.
	order := []string{"table4", "table5", "table6", "fig4", "fig5", "fig6"}

	which := strings.ToLower(*expFlag)
	if which == "all" {
		for _, name := range order {
			if err := runs[name](cfg); err != nil {
				fatal(err)
			}
			fmt.Fprintln(out)
		}
	} else {
		fn, ok := runs[which]
		if !ok {
			fatal(fmt.Errorf("unknown experiment %q", which))
		}
		if err := fn(cfg); err != nil {
			fatal(err)
		}
	}
	if *jsonOut {
		// Only -json promises JSON on stdout; -baseline alone records for
		// the gate but keeps stdout human-readable.
		emitJSON(cfg)
	}
	// Gate after emitting: a regression must still leave the fresh JSON
	// on stdout so CI can archive the failing trajectory.
	if *baseline != "" {
		if err := gateBaseline(*baseline, cfg); err != nil {
			fatal(err)
		}
	}
}

// gateBaseline loads a previous -json export and fails on a >2x
// node-count regression in the pinned trajectory records.
func gateBaseline(path string, cfg exp.Config) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var prev []exp.Record
	if err := json.Unmarshal(data, &prev); err != nil {
		return fmt.Errorf("baseline %s: %w", path, err)
	}
	return exp.CompareRecords(prev, cfg.Recorder.Records(), 2.0, os.Stderr)
}

// emitJSON writes the collected per-run records to stdout when -json is
// active (the Recorder is only created in that case).
func emitJSON(cfg exp.Config) {
	if cfg.Recorder == nil {
		return
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(cfg.Recorder.Records()); err != nil {
		fatal(err)
	}
}

func parseInts(s string) []int {
	var out []int
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			fatal(fmt.Errorf("bad integer %q", f))
		}
		out = append(out, v)
	}
	return out
}

func parseFloats(s string) []float64 {
	var out []float64
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil {
			fatal(fmt.Errorf("bad float %q", f))
		}
		out = append(out, v)
	}
	return out
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mbbbench:", err)
	os.Exit(1)
}
