// Command bench is the repository's benchmark: four workloads that drive
// the solver library, the HTTP daemon and a durable worker behind the
// cluster coordinator through their public APIs, check every answer, and
// print the end-to-end metrics (or, traced, the per-layer metrics) as
// one JSON line. See README.md for the workloads, metrics and bounds.
//
// Usage, from the repository root:
//
//	bash bench/run.sh --workload dense --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh compare A.jsonl B.jsonl
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(*run) error{
	"dense":  runDense,
	"sparse": runSparse,
	"serve":  runServe,
	"churn":  runChurn,
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout, os.Stderr))
	}
	os.Exit(benchMain(os.Args[1:], os.Stdout, os.Stderr))
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// record is one line of a -record file: a result tagged with what
// produced it, plus every value the run computed (a traced run's own
// end-to-end numbers among them, which give the tracing overhead). It is
// the input of the compare tool.
type record struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Trace    bool               `json:"trace"`
	Result   result             `json:"result"`
	Values   map[string]float64 `json:"values"`
}

// run is the state of one workload execution.
type run struct {
	seed   int64
	budget time.Duration // measured time, split among the workload's phases
	short  bool          // small inputs, for the package tests
	tr     *tracer       // nil in untraced runs
	dir    string        // temporary directory for daemon data directories
	log    io.Writer

	attempts atomic.Int64
	failures atomic.Int64

	mu     sync.Mutex
	shown  int
	values map[string]float64 // every metric computed, e2e and per-layer
}

// maxShownFailures bounds how many failure messages a run prints.
const maxShownFailures = 20

// fail counts one failed operation and reports the first few.
func (r *run) fail(format string, args ...any) {
	r.failures.Add(1)
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.shown < maxShownFailures {
		r.shown++
		fmt.Fprintf(r.log, "FAIL: "+format+"\n", args...)
	}
}

// check counts one checked operation, failing it unless ok.
func (r *run) check(ok bool, format string, args ...any) bool {
	r.attempts.Add(1)
	if !ok {
		r.fail(format, args...)
	}
	return ok
}

func (r *run) set(name string, v float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.values[name] = v
}

// setupRepeats is how many times a workload builds its system; setup_s
// is the median, and only the last system is measured.
const setupRepeats = 3

// setUp builds the workload's system setupRepeats times, reports the
// median build time as setup_s, and returns the teardown of the last
// build after tearing down the earlier ones.
func (r *run) setUp(build func() (teardown func(), err error)) (func(), error) {
	var secs []float64
	teardown := func() {}
	for i := 0; i < setupRepeats; i++ {
		teardown()
		start := time.Now()
		td, err := build()
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		secs = append(secs, time.Since(start).Seconds())
		teardown = td
	}
	r.set("setup_s", median(secs))
	return teardown, nil
}

// newRun returns the state of one run, traced or not, that reports to
// log.
func newRun(seed int64, budget time.Duration, traced bool, log io.Writer) *run {
	r := &run{seed: seed, budget: budget, log: log, values: make(map[string]float64)}
	if traced {
		r.tr = &tracer{}
	}
	return r
}

func benchMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: dense, sparse, serve or churn")
	seed := fs.Int64("seed", 1, "seed the inputs are generated from")
	seconds := fs.Int("seconds", 20, "measured time per run")
	trace := fs.Int("trace", 0, "1 records spans and reports per-layer metrics instead of end-to-end ones")
	spans := fs.String("spans", "", "with -trace 1, also write every span to this JSON-lines file")
	recordTo := fs.String("record", "", "append the result, tagged with workload and seed, to this JSON-lines file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	drive, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(stderr, "bench: unknown workload %q (want dense, sparse, serve or churn)\n", *name)
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "bench: -seconds must be at least 1 and -trace 0 or 1")
		return 2
	}
	m, err := readManifest()
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	r := newRun(*seed, time.Duration(*seconds)*time.Second, *trace == 1, stderr)
	res, err := execute(r, drive, m)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", *name, err)
	}
	if r.tr != nil && *spans != "" {
		if werr := r.tr.writeJSONLines(*spans); werr != nil {
			fmt.Fprintf(stderr, "bench: write spans: %v\n", werr)
		}
	}
	if *recordTo != "" {
		if werr := appendRecord(*recordTo, record{Workload: *name, Seed: *seed, Trace: r.tr != nil, Result: res, Values: r.values}); werr != nil {
			fmt.Fprintf(stderr, "bench: record: %v\n", werr)
			return 1
		}
	}
	line, _ := json.Marshal(res)
	fmt.Fprintln(stdout, string(line))
	if err != nil || !res.Correct {
		return 1
	}
	return 0
}

// execute runs one workload in a temporary directory and assembles its
// result: every end-to-end metric of the manifest for an untraced run,
// every per-layer metric for a traced one. A workload error counts as a
// failed op.
func execute(r *run, drive func(*run) error, m manifest) (result, error) {
	dir, err := os.MkdirTemp("", "mbbbench-")
	if err != nil {
		return result{Metrics: map[string]metric{}}, err
	}
	defer os.RemoveAll(dir)
	r.dir = dir
	err = drive(r)
	if err != nil {
		r.attempts.Add(1)
		r.failures.Add(1)
	}
	if r.tr != nil {
		r.set("trace.overhang_frac", r.tr.overhangFrac())
	}
	report(r)

	defs, traced := m.EndToEnd, r.tr != nil
	if traced {
		defs = m.PerLayer
	}
	res := result{Attempted: r.attempts.Load(), Failed: r.failures.Load(), Metrics: map[string]metric{}}
	for _, d := range defs {
		v, ok := r.values[d.Name]
		if !traced && !(ok && v > 0) && err == nil {
			err = fmt.Errorf("end-to-end metric %s was not measured", d.Name)
			res.Failed++
		}
		res.Metrics[d.Name] = metric{Value: v, Unit: d.Unit}
	}
	res.Attempted = max(res.Attempted, 1)
	res.Correct = res.Failed == 0
	return res, err
}

// report prints every value the run computed, end-to-end and per-layer,
// plus the traced run's self-time table, to the log.
func report(r *run) {
	names := make([]string, 0, len(r.values))
	for n := range r.values {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(r.log, "ops attempted %d, failed %d\n", r.attempts.Load(), r.failures.Load())
	for _, n := range names {
		fmt.Fprintf(r.log, "  %-30s %14.6g\n", n, r.values[n])
	}
	if r.tr != nil {
		r.tr.printSelf(r.log)
	}
}

func appendRecord(path string, rec record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	_, werr := f.Write(append(line, '\n'))
	return errors.Join(werr, f.Close())
}
