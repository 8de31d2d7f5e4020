package main

import (
	"bytes"
	"sort"
	"testing"
	"time"
)

// TestWorkloadsShort runs every workload on small inputs for a short
// budget, with the checks of a non-golden seed. serve and churn run
// traced, which also exercises the access-log join.
func TestWorkloadsShort(t *testing.T) {
	m, err := readManifest()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		traced bool
	}{{"dense", false}, {"sparse", false}, {"serve", true}, {"churn", true}} {
		t.Run(tc.name, func(t *testing.T) {
			var log bytes.Buffer
			r := newRun(2, 1500*time.Millisecond, tc.traced, &log)
			r.short = true
			res, err := execute(r, workloads[tc.name], m)
			if err != nil || !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("err %v, result %+v\n%s", err, res, log.String())
			}
			for _, d := range m.EndToEnd {
				if v := r.values[d.Name]; !(v > 0) {
					t.Errorf("end-to-end metric %s = %v, want > 0", d.Name, v)
				}
			}
			want := m.EndToEnd
			if tc.traced {
				want = m.PerLayer
				if f := r.values["trace.overhang_frac"]; f > 0.1 {
					t.Errorf("joined spans stick out of their parents by %.1f%% of the root time", 100*f)
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("result has %d metrics, want %d", len(res.Metrics), len(want))
			}
			for _, d := range want {
				if got, ok := res.Metrics[d.Name]; !ok || got.Unit != d.Unit {
					t.Errorf("result lacks %s in %s: %+v", d.Name, d.Unit, got)
				}
			}
		})
	}
}

// TestManifestWorkloads checks that BENCHMARK.json names exactly the
// workloads the benchmark runs.
func TestManifestWorkloads(t *testing.T) {
	m, err := readManifest()
	if err != nil {
		t.Fatal(err)
	}
	var names, want []string
	for _, w := range m.Workloads {
		names = append(names, w.Name)
	}
	for w := range workloads {
		want = append(want, w)
	}
	sort.Strings(names)
	sort.Strings(want)
	if len(names) != len(want) {
		t.Errorf("manifest workloads %v, benchmark has %v", names, want)
	}
	for i := range min(len(names), len(want)) {
		if names[i] != want[i] {
			t.Errorf("manifest workloads %v, benchmark has %v", names, want)
			break
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	m := manifest{Workloads: []specEntry{{Name: "w"}}, EndToEnd: []specEntry{
		{Name: "steady", Better: "lower", Bound: 0.1},
		{Name: "slower", Better: "lower", Bound: 0.1},
		{Name: "noisy", Better: "lower", Bound: 0.1},
		{Name: "faster", Better: "higher", Bound: 0.1},
	}}
	set := func(vals map[string][]float64) []record {
		var out []record
		for i := 0; i < 3; i++ {
			rec := record{Workload: "w", Result: result{Metrics: map[string]metric{}}}
			for name, vs := range vals {
				rec.Result.Metrics[name] = metric{Value: vs[i]}
			}
			out = append(out, rec)
		}
		return out
	}
	a := set(map[string][]float64{"steady": {10, 10, 10}, "slower": {10, 10, 10}, "noisy": {10, 10, 10}, "faster": {100, 100, 100}})
	b := set(map[string][]float64{"steady": {10.5, 10.4, 10.6}, "slower": {12, 12, 12}, "noisy": {8, 10, 13}, "faster": {120, 120, 120}})
	want := map[string]string{"steady": "ok", "slower": "worse", "noisy": "unresolved", "faster": "ok"}
	for _, rw := range compareSets(m, a, b) {
		if rw.verdict != want[rw.metric] {
			t.Errorf("%s: verdict %s, want %s", rw.metric, rw.verdict, want[rw.metric])
		}
	}
}
