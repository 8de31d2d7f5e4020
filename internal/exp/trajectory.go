package exp

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/bigraph"
	"repro/internal/workload"
)

// trajectoryPins is the pinned CI subset: small seeded instances that
// every run solves to completion, so their search-node counts are
// deterministic for a given code version and comparable across commits.
// The dense cells carry most of the gate's signal (tens of thousands to
// millions of nodes); the sparse stand-ins mostly watch that the planner
// keeps crushing them (small counts, but a pruning regression would blow
// them up well past 2x). Adding a pin is cheap; renaming one orphans its
// baseline history.
var trajectoryPins = []struct {
	dataset string // Record.Dataset label
	solver  string
	gen     func(seed int64) *bigraph.Graph
}{
	{"dense-48x48-0.90", "denseMBB", func(s int64) *bigraph.Graph { return workload.Dense(48, 48, 0.90, s) }},
	{"dense-64x64-0.90", "denseMBB", func(s int64) *bigraph.Graph { return workload.Dense(64, 64, 0.90, s) }},
	{"dense-32x32-0.80", "extBBCL", func(s int64) *bigraph.Graph { return workload.Dense(32, 32, 0.80, s) }},
	{"github", "auto", standIn("github", 15000)},
	{"pics-ut", "hbvMBB", standIn("pics-ut", 8000)},
}

// standIn generates the seeded stand-in for a named KONECT dataset.
func standIn(name string, maxVerts int) func(int64) *bigraph.Graph {
	return func(seed int64) *bigraph.Graph {
		d, ok := workload.ByName(name)
		if !ok {
			return nil
		}
		return d.Generate(maxVerts, seed)
	}
}

// Trajectory is the CI benchmark trajectory (cmd/mbbbench -exp
// trajectory): a pinned, seeded subset of the paper workloads solved
// sequentially, whose search-node counts are the machine-independent
// regression currency. With -json the records become BENCH_<n>.json;
// with -baseline the node counts gate against a previous trajectory
// (CompareRecords).
func Trajectory(c Config) error {
	c.fill()
	if c.Recorder == nil {
		c.Recorder = NewRecorder()
	}

	fmt.Fprintf(c.W, "trajectory: %d pinned solves (budget %s, sequential)\n", len(trajectoryPins), c.Budget)
	seq := c
	seq.Workers = 0 // deterministic node counts
	for _, pin := range trajectoryPins {
		g := pin.gen(c.Seed)
		if g == nil {
			return fmt.Errorf("trajectory: unknown dataset %q", pin.dataset)
		}
		secs, res, timedOut, err := seq.runSolver("trajectory", pin.dataset, pin.solver, g, nil)
		if err != nil {
			return fmt.Errorf("trajectory %s/%s: %w", pin.dataset, pin.solver, err)
		}
		mark := ""
		if timedOut {
			// A timeout makes the node count budget-dependent, not
			// code-dependent; the record stays (TimedOut flags it) but the
			// gate skips it.
			mark = " (timed out — excluded from the gate)"
		}
		fmt.Fprintf(c.W, "  %-18s %-9s %8.3fs %12d nodes  size %d%s\n",
			pin.dataset, pin.solver, secs, res.Stats.Nodes, res.Biclique.Size(), mark)
	}
	return nil
}

// CompareRecords is the CI regression gate: cur's pinned-trajectory node
// counts must not exceed factor× the matching record in prev. Only
// exp "trajectory" records that completed within budget enter the
// comparison: older baselines (BENCH_8.json and before) also carry
// serving-layer latency records, which are machine-dependent and never
// gate.
// Matched, passing entries are logged to w; any regression is collected
// into the returned error.
func CompareRecords(prev, cur []Record, factor float64, w io.Writer) error {
	key := func(r Record) string { return r.Dataset + "/" + r.Solver }
	gated := func(r Record) bool { return r.Exp == "trajectory" && !r.TimedOut && r.Nodes > 0 }
	base := make(map[string]int64)
	for _, r := range prev {
		if gated(r) {
			base[key(r)] = r.Nodes
		}
	}
	var bad []string
	matched := 0
	for _, r := range cur {
		if !gated(r) {
			continue
		}
		b, ok := base[key(r)]
		if !ok {
			fmt.Fprintf(w, "bench gate: %-28s %12d nodes (new pin, no baseline)\n", key(r), r.Nodes)
			continue
		}
		matched++
		ratio := float64(r.Nodes) / float64(b)
		if float64(r.Nodes) > factor*float64(b) {
			bad = append(bad, fmt.Sprintf("%s: %d nodes vs %d baseline (%.2fx > %.1fx)",
				key(r), r.Nodes, b, ratio, factor))
			continue
		}
		fmt.Fprintf(w, "bench gate: %-28s %12d nodes vs %d baseline (%.2fx) ok\n", key(r), r.Nodes, b, ratio)
	}
	if len(bad) > 0 {
		return fmt.Errorf("benchmark regression (node counts):\n  %s", strings.Join(bad, "\n  "))
	}
	if matched == 0 && len(base) > 0 {
		return fmt.Errorf("bench gate: baseline has %d pins but the current run matched none", len(base))
	}
	return nil
}
