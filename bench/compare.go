package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// manifest is the part of BENCHMARK.json the benchmark reads: the
// metrics a run reports, and the bounds compare reads them against.
type manifest struct {
	RunSeconds int         `json:"run_seconds"`
	Workloads  []specEntry `json:"workloads"`
	EndToEnd   []specEntry `json:"end_to_end"`
	PerLayer   []specEntry `json:"per_layer"`
}

// specEntry is a workload or a metric of the manifest.
type specEntry struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// readManifest reads BENCHMARK.json from the current directory or its
// parent (the repository root when run inside bench/).
func readManifest() (manifest, error) {
	var m manifest
	var err error
	for _, p := range []string{"BENCHMARK.json", filepath.Join("..", "BENCHMARK.json")} {
		var data []byte
		if data, err = os.ReadFile(p); err == nil {
			return m, json.Unmarshal(data, &m)
		}
	}
	return m, err
}

// readRecords reads a -record JSON-lines file.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, rec)
	}
	return out, sc.Err()
}

// row is one workload × end-to-end metric comparison.
type row struct {
	workload, metric string
	a, b             [3]float64 // quartiles
	bound            float64
	verdict          string // ok, worse or unresolved
}

// values collects one metric of one workload over a set's untraced runs.
func values(set []record, workload, metric string) []float64 {
	var out []float64
	for _, rec := range set {
		if m, ok := rec.Result.Metrics[metric]; ok && rec.Workload == workload && !rec.Trace {
			out = append(out, m.Value)
		}
	}
	return out
}

// spread is the interquartile distance as a share of the median.
func spread(q [3]float64) float64 {
	if q[1] == 0 {
		return 0
	}
	return (q[2] - q[0]) / q[1]
}

// compareSets reads set b against set a. A row is unresolved when either
// set's spread is wider than the bound, worse when b's median is worse
// than a's by more than the bound, and ok otherwise.
func compareSets(m manifest, a, b []record) []row {
	var rows []row
	for _, w := range m.Workloads {
		for _, e := range m.EndToEnd {
			va, vb := values(a, w.Name, e.Name), values(b, w.Name, e.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			rw := row{workload: w.Name, metric: e.Name, bound: e.Bound}
			rw.a[0], rw.a[1], rw.a[2] = quartiles(va)
			rw.b[0], rw.b[1], rw.b[2] = quartiles(vb)
			change := rw.b[1]/rw.a[1] - 1
			if e.Better == "higher" {
				change = -change
			}
			switch {
			case spread(rw.a) > e.Bound || spread(rw.b) > e.Bound:
				rw.verdict = "unresolved"
			case change > e.Bound:
				rw.verdict = "worse"
			default:
				rw.verdict = "ok"
			}
			rows = append(rows, rw)
		}
	}
	return rows
}

func compareMain(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: bench compare A.jsonl B.jsonl")
		return 2
	}
	m, err := readManifest()
	if err != nil {
		fmt.Fprintf(stderr, "compare: %v\n", err)
		return 2
	}
	a, errA := readRecords(args[0])
	b, errB := readRecords(args[1])
	if err := errors.Join(errA, errB); err != nil {
		fmt.Fprintf(stderr, "compare: %v\n", err)
		return 2
	}
	rows := compareSets(m, a, b)
	fmt.Fprintf(stdout, "%-7s %-14s %30s %30s %8s %6s  %s\n", "load", "metric", "A median [q1, q3]", "B median [q1, q3]", "change", "bound", "verdict")
	status := 0
	for _, rw := range rows {
		fmt.Fprintf(stdout, "%-7s %-14s %30s %30s %+7.1f%% %5.0f%%  %s\n", rw.workload, rw.metric,
			fmt.Sprintf("%.4g [%.4g, %.4g]", rw.a[1], rw.a[0], rw.a[2]),
			fmt.Sprintf("%.4g [%.4g, %.4g]", rw.b[1], rw.b[0], rw.b[2]),
			100*(rw.b[1]/rw.a[1]-1), 100*rw.bound, rw.verdict)
		if rw.verdict != "ok" {
			status = 1
		}
	}
	if len(rows) == 0 {
		fmt.Fprintln(stderr, "compare: the two sets share no workload")
		return 2
	}
	return status
}
