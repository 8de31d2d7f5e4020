package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/mbb"
)

// k33 is the complete bipartite graph K3,3 in edge-list format; its
// maximum balanced biclique has size 3 per side.
const k33 = "3 3 9\n0 0\n0 1\n0 2\n1 0\n1 1\n1 2\n2 0\n2 1\n2 2\n"

func newTestServer(t *testing.T, opt Options) (*Server, *httptest.Server) {
	t.Helper()
	if opt.DefaultTimeout == 0 {
		opt.DefaultTimeout = time.Minute
	}
	srv, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts
}

func do(t *testing.T, method, url string, body io.Reader) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func decode[T any](t *testing.T, data []byte) T {
	t.Helper()
	var v T
	if err := json.Unmarshal(data, &v); err != nil {
		t.Fatalf("decode %q: %v", data, err)
	}
	return v
}

func putGraph(t *testing.T, ts *httptest.Server, name, body, format string) GraphInfo {
	t.Helper()
	url := ts.URL + "/graphs/" + name
	if format != "" {
		url += "?format=" + format
	}
	resp, data := do(t, http.MethodPut, url, strings.NewReader(body))
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("PUT %s: %d %s", name, resp.StatusCode, data)
	}
	return decode[GraphInfo](t, data)
}

func solveSync(t *testing.T, ts *httptest.Server, graph, body string) JobInfo {
	t.Helper()
	resp, data := do(t, http.MethodPost, ts.URL+"/graphs/"+graph+"/solve", strings.NewReader(body))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve %s: %d %s", graph, resp.StatusCode, data)
	}
	return decode[JobInfo](t, data)
}

func TestUploadAndSolve(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})
	info := putGraph(t, ts, "k33", k33, "")
	if info.NL != 3 || info.NR != 3 || info.Edges != 9 {
		t.Fatalf("upload info %+v", info)
	}
	job := solveSync(t, ts, "k33", `{"timeout":"30s"}`)
	if job.State != JobDone || job.Result == nil {
		t.Fatalf("job %+v", job)
	}
	if job.Result.Size != 3 || !job.Result.Exact {
		t.Fatalf("result %+v", job.Result)
	}
}

func TestUploadKONECT(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	konect := "% bip unweighted\n% 9 3 3\n1 1\n1 2\n1 3\n2 1\n2 2\n2 3\n3 1\n3 2\n3 3\n"
	info := putGraph(t, ts, "k33k", konect, "konect")
	if info.NL != 3 || info.NR != 3 || info.Edges != 9 {
		t.Fatalf("upload info %+v", info)
	}
	job := solveSync(t, ts, "k33k", "")
	if job.Result == nil || job.Result.Size != 3 {
		t.Fatalf("job %+v", job)
	}
}

func TestUploadErrors(t *testing.T) {
	_, ts := newTestServer(t, Options{MaxVertices: 100})
	cases := []struct {
		name, body, format string
		wantStatus         int
	}{
		{"bad", "not a graph", "", http.StatusBadRequest},
		{"bad", k33, "nope", http.StatusBadRequest},
		{"huge", "1000000 1000000 1\n0 0\n", "", http.StatusBadRequest},
		{"hugehint", "% 1 500000 500000\n1 1\n", "konect", http.StatusBadRequest},
		{"outofhint", "% 3 2 2\n5 1\n", "konect", http.StatusBadRequest},
		// Side sizes whose sum overflows int: a 400, not a panic and a 500.
		{"wrap", "9223372036854775807 1\n0 0\n", "", http.StatusBadRequest},
		{"wraphint", "% 1 9223372036854775807 1\n1 1\n", "konect", http.StatusBadRequest},
		{"wrapids", "9223372036854775807 1\n", "konect", http.StatusBadRequest},
		{"bad name!", k33, "", http.StatusBadRequest},
	}
	for _, tc := range cases {
		resp, data := do(t, http.MethodPut, ts.URL+"/graphs/"+strings.ReplaceAll(tc.name, " ", "%20")+"?format="+tc.format, strings.NewReader(tc.body))
		if resp.StatusCode != tc.wantStatus {
			t.Errorf("PUT %q format=%q: status %d (%s), want %d", tc.name, tc.format, resp.StatusCode, data, tc.wantStatus)
		}
	}
	resp, _ := do(t, http.MethodPost, ts.URL+"/graphs/ghost/solve", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("solve unknown graph: %d", resp.StatusCode)
	}
}

func TestBadSolveOptions(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	putGraph(t, ts, "k33", k33, "")
	cases := []string{
		`{"max_nodes":-1}`,
		`{"workers":-2}`,
		`{"timeout":"-3s"}`,
		`{"timeout":"soon"}`,
		`{"solver":"nope"}`,
		`{"reduce":"sometimes"}`,
		`{"bogus_field":1}`,
	}
	for _, body := range cases {
		resp, data := do(t, http.MethodPost, ts.URL+"/graphs/k33/jobs", strings.NewReader(body))
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("submit %s: status %d (%s), want 400", body, resp.StatusCode, data)
		}
	}
}

// Two overlapping jobs on the same stored graph must both complete with
// the correct optimum — the scheduler's concurrency acceptance check.
func TestOverlappingSolves(t *testing.T) {
	srv, ts := newTestServer(t, Options{Workers: 2})
	g := mbb.GeneratePowerLaw(200, 200, 1200, 9)
	want, err := mbb.Solve(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := mbb.WriteGraph(&buf, g); err != nil {
		t.Fatal(err)
	}
	putGraph(t, ts, "pl", buf.String(), "")

	ids := make([]string, 2)
	for i := range ids {
		resp, data := do(t, http.MethodPost, ts.URL+"/graphs/pl/jobs", strings.NewReader(`{"timeout":"60s"}`))
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit: %d %s", resp.StatusCode, data)
		}
		ids[i] = decode[JobInfo](t, data).ID
	}
	for _, id := range ids {
		resp, data := do(t, http.MethodGet, ts.URL+"/jobs/"+id+"?wait=1", nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("wait %s: %d %s", id, resp.StatusCode, data)
		}
		job := decode[JobInfo](t, data)
		if job.State != JobDone || job.Result == nil {
			t.Fatalf("job %s: %+v", id, job)
		}
		if job.Result.Size != want.Biclique.Size() || !job.Result.Exact {
			t.Fatalf("job %s: size %d exact %v, want %d exact", id, job.Result.Size, job.Result.Exact, want.Biclique.Size())
		}
	}
	if n := srv.Store().List()[0].PlanBuilds; n != 1 {
		t.Fatalf("plan built %d times for two jobs, want 1", n)
	}
}

// A repeated query on a stored graph must reuse the cached reduction:
// the second run reports the same τ/peeled/components, flags
// plan_cached, and the store shows exactly one plan build.
func TestCachedPlanReuse(t *testing.T) {
	srv, ts := newTestServer(t, Options{Workers: 2})
	g := mbb.GeneratePowerLaw(150, 150, 800, 4)
	var buf bytes.Buffer
	if err := mbb.WriteGraph(&buf, g); err != nil {
		t.Fatal(err)
	}
	putGraph(t, ts, "pl", buf.String(), "")

	first := solveSync(t, ts, "pl", "")
	second := solveSync(t, ts, "pl", "")
	if first.Result == nil || second.Result == nil {
		t.Fatalf("results missing: %+v / %+v", first, second)
	}
	if first.Result.PlanCached {
		t.Error("first solve claims a cached plan")
	}
	if !second.Result.PlanCached {
		t.Error("second solve did not reuse the cached plan")
	}
	fs, ss := first.Result.Stats, second.Result.Stats
	if fs.Tau != ss.Tau || fs.Peeled != ss.Peeled || fs.Components != ss.Components {
		t.Errorf("stats diverged across cached runs: %+v vs %+v", fs, ss)
	}
	if second.Result.Size != first.Result.Size {
		t.Errorf("sizes diverged: %d vs %d", first.Result.Size, second.Result.Size)
	}
	info := srv.Store().List()[0]
	if info.PlanBuilds != 1 {
		t.Errorf("plan_builds = %d after two solves, want 1", info.PlanBuilds)
	}
	if info.PlanHits < 1 {
		t.Errorf("plan_hits = %d, want >= 1", info.PlanHits)
	}
	if info.SeedTau != fs.Tau || int64(info.Peeled) != fs.Peeled || info.Components != fs.Components {
		t.Errorf("graph info plan stats %+v disagree with job stats %+v", info, fs)
	}
}

// DELETE /jobs/{id} must stop a running solve promptly; the job lands in
// "canceled" with its best-so-far result and Exact == false.
func TestCancelRunningJob(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	g := mbb.GenerateDense(46, 46, 0.93, 7)
	var buf bytes.Buffer
	if err := mbb.WriteGraph(&buf, g); err != nil {
		t.Fatal(err)
	}
	putGraph(t, ts, "hard", buf.String(), "")

	resp, data := do(t, http.MethodPost, ts.URL+"/graphs/hard/jobs",
		strings.NewReader(`{"solver":"basicBB","timeout":"5m"}`))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, data)
	}
	id := decode[JobInfo](t, data).ID

	time.Sleep(150 * time.Millisecond) // let the worker pick it up
	cancelAt := time.Now()
	resp, data = do(t, http.MethodDelete, ts.URL+"/jobs/"+id, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel: %d %s", resp.StatusCode, data)
	}
	resp, data = do(t, http.MethodGet, ts.URL+"/jobs/"+id+"?wait=1", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("wait: %d %s", resp.StatusCode, data)
	}
	if elapsed := time.Since(cancelAt); elapsed > 10*time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}
	job := decode[JobInfo](t, data)
	if job.State != JobCanceled {
		t.Fatalf("state %q, want canceled (job %+v)", job.State, job)
	}
	if job.Result != nil && job.Result.Exact {
		t.Fatal("canceled job claims an exact result")
	}
}

// A job canceled while still queued finishes immediately as canceled
// without ever running.
func TestCancelQueuedJob(t *testing.T) {
	srv, err := New(Options{Workers: 1, QueueCap: 4, DefaultTimeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	g := mbb.GenerateDense(46, 46, 0.93, 3)
	sg, err := srv.Store().Put("hard", g)
	if err != nil {
		t.Fatal(err)
	}
	blocker, err := srv.Scheduler().Submit(sg, SolveRequest{Solver: "basicBB", Timeout: "5m"})
	if err != nil {
		t.Fatal(err)
	}
	queued, err := srv.Scheduler().Submit(sg, SolveRequest{Solver: "basicBB", Timeout: "5m"})
	if err != nil {
		t.Fatal(err)
	}
	if !srv.Scheduler().Cancel(queued.ID()) {
		t.Fatal("cancel queued job failed")
	}
	select {
	case <-queued.Done():
	case <-time.After(2 * time.Second):
		t.Fatal("queued job not done after cancel")
	}
	if info := queued.Info(); info.State != JobCanceled || info.Started != "" {
		t.Fatalf("queued job info %+v", info)
	}
	srv.Scheduler().Cancel(blocker.ID())
	<-blocker.Done()
}

// The queue is the admission bound: with one busy worker and a full
// queue, further submissions are rejected with ErrQueueFull (HTTP 503).
func TestQueueFull(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, QueueCap: 1})
	g := mbb.GenerateDense(46, 46, 0.93, 5)
	var buf bytes.Buffer
	if err := mbb.WriteGraph(&buf, g); err != nil {
		t.Fatal(err)
	}
	putGraph(t, ts, "hard", buf.String(), "")

	submit := func() (int, JobInfo) {
		resp, data := do(t, http.MethodPost, ts.URL+"/graphs/hard/jobs",
			strings.NewReader(`{"solver":"basicBB","timeout":"5m"}`))
		var info JobInfo
		if resp.StatusCode == http.StatusAccepted {
			info = decode[JobInfo](t, data)
		}
		return resp.StatusCode, info
	}
	var accepted []string
	sawFull := false
	for i := 0; i < 8 && !sawFull; i++ {
		code, info := submit()
		switch code {
		case http.StatusAccepted:
			accepted = append(accepted, info.ID)
		case http.StatusServiceUnavailable:
			sawFull = true
		default:
			t.Fatalf("submit: unexpected status %d", code)
		}
	}
	if !sawFull {
		t.Fatal("queue never reported full")
	}
	for _, id := range accepted {
		do(t, http.MethodDelete, ts.URL+"/jobs/"+id, nil)
	}
}

// A request may not size the solver's goroutine pools arbitrarily: huge
// workers values are clamped server-side, and a job that fails at solve
// time surfaces as HTTP 500 on the synchronous endpoint, not a 200 with
// an empty result.
func TestWorkersClampAndFailedSolve(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, MaxJobWorkers: 8})
	putGraph(t, ts, "k33", k33, "")
	// Unclamped, this would allocate a ~1e9-slot channel and as many
	// goroutines inside the sparse pipeline.
	job := solveSync(t, ts, "k33", `{"workers":1000000000,"solver":"hbvMBB"}`)
	if job.State != JobDone || job.Result == nil || job.Result.Size != 3 {
		t.Fatalf("clamped-workers solve: %+v", job)
	}

	old := mbb.DenseCellLimit
	mbb.DenseCellLimit = 4 // 3x3 = 9 cells > 4 → denseMBB fails with ErrTooLarge
	defer func() { mbb.DenseCellLimit = old }()
	resp, data := do(t, http.MethodPost, ts.URL+"/graphs/k33/solve", strings.NewReader(`{"solver":"denseMBB"}`))
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("failed solve returned %d (%s), want 500", resp.StatusCode, data)
	}
	info := decode[JobInfo](t, data)
	if info.State != JobFailed || info.Error == "" {
		t.Fatalf("failed solve info %+v", info)
	}
}

func TestGraphLifecycleAndStats(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	putGraph(t, ts, "k33", k33, "")
	solveSync(t, ts, "k33", "")

	resp, data := do(t, http.MethodGet, ts.URL+"/stats", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats: %d", resp.StatusCode)
	}
	stats := decode[ServerStats](t, data)
	if stats.Graphs != 1 || stats.Scheduler.Done != 1 {
		t.Fatalf("stats %+v", stats)
	}

	resp, _ = do(t, http.MethodGet, ts.URL+"/graphs", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("list graphs: %d", resp.StatusCode)
	}
	resp, _ = do(t, http.MethodDelete, ts.URL+"/graphs/k33", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete: %d", resp.StatusCode)
	}
	resp, _ = do(t, http.MethodGet, ts.URL+"/graphs/k33", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("get deleted: %d", resp.StatusCode)
	}
	resp, _ = do(t, http.MethodGet, ts.URL+"/jobs/zzz", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("get unknown job: %d", resp.StatusCode)
	}
	resp, _ = do(t, http.MethodGet, ts.URL+"/healthz", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}
}

func TestStoreLoadDir(t *testing.T) {
	dir := t.TempDir()
	writeFile := func(name, content string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o600); err != nil {
			t.Fatal(err)
		}
	}
	writeFile("k33.txt", k33)
	writeFile("out.tiny", "% bip\n1 1\n2 2\n")
	writeFile("pair.konect", "% bip\n% 1 2 2\n1 1\n")

	srv, err := New(Options{StoreDir: dir, DefaultTimeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if n := srv.Store().Len(); n != 3 {
		t.Fatalf("loaded %d graphs, want 3", n)
	}
	for _, name := range []string{"k33", "tiny", "pair"} {
		if _, ok := srv.Store().Get(name); !ok {
			t.Errorf("graph %q not loaded", name)
		}
	}
}
