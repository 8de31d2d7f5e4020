package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bigraph"
	"repro/internal/core"
	"repro/mbb"
)

// stallGate is the release valve for the testStall solver: each test
// installs a fresh channel; the solver blocks on it, deliberately
// ignoring cancellation, to model a wedged or slow-to-cancel solver.
var (
	stallSolverOnce sync.Once
	stallGate       atomic.Pointer[chan struct{}]
)

func registerStallSolver(t *testing.T) chan struct{} {
	t.Helper()
	stallSolverOnce.Do(func() {
		err := mbb.Register(mbb.SolverSpec{
			Name: "testStall",
			Doc:  "test-only: ignores cancellation until its gate is closed",
			Run: func(ex *core.Exec, g *mbb.Graph, opt *mbb.Options) (core.Result, error) {
				if ch := stallGate.Load(); ch != nil {
					<-*ch
				}
				return core.Result{}, context.Canceled
			},
		})
		if err != nil {
			t.Fatalf("register stall solver: %v", err)
		}
	})
	gate := make(chan struct{})
	stallGate.Store(&gate)
	// Never leave a worker goroutine parked past the test.
	t.Cleanup(func() { releaseGate(gate) })
	return gate
}

// releaseGate closes the stall gate exactly once; tests run their
// solvers sequentially, so the check-then-close cannot race.
func releaseGate(gate chan struct{}) {
	select {
	case <-gate:
	default:
		close(gate)
	}
}

const stallBody = `{"solver":"testStall","reduce":"off","timeout":"1m"}`

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestSolveBodyTooLarge is the regression test for oversized solve
// bodies: exceeding the 1 MiB cap is the client breaking a documented
// limit (413), not a malformed request (400) — on both solve endpoints.
func TestSolveBodyTooLarge(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	putGraph(t, ts, "k33", k33, "")
	big := `{"timeout":"` + strings.Repeat("x", 1<<20) + `"}`
	for _, path := range []string{"/graphs/k33/solve", "/graphs/k33/jobs"} {
		resp, data := do(t, http.MethodPost, ts.URL+path, strings.NewReader(big))
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("POST %s with %d-byte body: status %d (%s), want 413", path, len(big), resp.StatusCode, data)
		}
	}
	// A body inside the limit but malformed stays a 400.
	resp, _ := do(t, http.MethodPost, ts.URL+"/graphs/k33/solve", strings.NewReader(`{"timeout":`))
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed body: status %d, want 400", resp.StatusCode)
	}
}

// TestUploadBodyTooLarge is the upload counterpart: a graph body over
// MaxUploadBytes gets 413 in both formats, wherever the cap cuts it,
// including inside a line that would not parse on its own. The reader
// must pass the *http.MaxBytesError through rather than parse the
// cut-off piece.
func TestUploadBodyTooLarge(t *testing.T) {
	const limit = 1 << 10
	_, ts := newTestServer(t, Options{Workers: 1, MaxUploadBytes: limit})
	g := mbb.GeneratePowerLaw(60, 60, 400, 3)
	for _, format := range []string{"edgelist", "konect"} {
		var body bytes.Buffer
		write := mbb.WriteGraph
		if format == "konect" {
			write = bigraph.WriteKONECT
		}
		if err := write(&body, g); err != nil {
			t.Fatal(err)
		}
		// Padding comments move the cut through every byte of a line.
		for pad := 0; pad < 12; pad++ {
			in := "%" + strings.Repeat(" ", pad) + "\n" + body.String()
			resp, data := do(t, http.MethodPut, ts.URL+"/graphs/big?format="+format, strings.NewReader(in))
			if resp.StatusCode != http.StatusRequestEntityTooLarge {
				t.Errorf("PUT %s, %d-byte body cut at %d: status %d (%s), want 413",
					format, len(in), limit, resp.StatusCode, data)
			}
		}
	}
}

// TestSubmit503RetryAfter pins the Retry-After contract on all three
// transient admission failures: queue full, draining, and closed.
func TestSubmit503RetryAfter(t *testing.T) {
	t.Run("queue-full", func(t *testing.T) {
		gate := registerStallSolver(t)
		srv, ts := newTestServer(t, Options{Workers: 1, QueueCap: 1})
		putGraph(t, ts, "g", k33, "")
		// Occupy the only worker, then the only queue slot.
		for i := 0; i < 2; i++ {
			resp, data := do(t, http.MethodPost, ts.URL+"/graphs/g/jobs", strings.NewReader(stallBody))
			if resp.StatusCode != http.StatusAccepted {
				t.Fatalf("submit %d: %d %s", i, resp.StatusCode, data)
			}
		}
		waitFor(t, 5*time.Second, "worker to pick up the stall job", func() bool {
			return srv.Scheduler().Running() == 1
		})
		resp, _ := do(t, http.MethodPost, ts.URL+"/graphs/g/jobs", strings.NewReader(stallBody))
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("over-capacity submit: status %d, want 503", resp.StatusCode)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Error("queue-full 503 lacks Retry-After")
		}
		releaseGate(gate)
	})

	t.Run("draining", func(t *testing.T) {
		srv, ts := newTestServer(t, Options{Workers: 1})
		putGraph(t, ts, "g", k33, "")
		srv.BeginDrain()
		resp, data := do(t, http.MethodPost, ts.URL+"/graphs/g/jobs", strings.NewReader("{}"))
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("submit while draining: status %d (%s), want 503", resp.StatusCode, data)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Error("draining 503 lacks Retry-After")
		}
		if !strings.Contains(string(data), "draining") {
			t.Errorf("draining 503 body %q does not say why", data)
		}
		// Reads stay live during a drain.
		if resp, _ := do(t, http.MethodGet, ts.URL+"/graphs/g", nil); resp.StatusCode != http.StatusOK {
			t.Errorf("GET /graphs/g during drain: status %d, want 200", resp.StatusCode)
		}
	})

	t.Run("closed", func(t *testing.T) {
		srv, ts := newTestServer(t, Options{Workers: 1})
		putGraph(t, ts, "g", k33, "")
		srv.Close()
		resp, _ := do(t, http.MethodPost, ts.URL+"/graphs/g/jobs", strings.NewReader("{}"))
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("submit after close: status %d, want 503", resp.StatusCode)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Error("closed 503 lacks Retry-After")
		}
	})
}

// TestSolveSyncDisconnectBoundedWait is the regression test for the
// unbounded post-disconnect wait: when the client goes away and the
// canceled job's solver refuses to stop, the handler must give up after
// CancelWait instead of pinning its goroutine on <-job.Done() forever.
func TestSolveSyncDisconnectBoundedWait(t *testing.T) {
	gate := registerStallSolver(t)
	srv, ts := newTestServer(t, Options{Workers: 1, QueueCap: 4, CancelWait: 50 * time.Millisecond})
	putGraph(t, ts, "g", k33, "")

	ctx, cancel := context.WithCancel(context.Background())
	req := httptest.NewRequest(http.MethodPost, "/graphs/g/solve", strings.NewReader(stallBody)).WithContext(ctx)
	rec := httptest.NewRecorder()
	handlerDone := make(chan struct{})
	go func() {
		defer close(handlerDone)
		srv.Handler().ServeHTTP(rec, req)
	}()

	waitFor(t, 5*time.Second, "stall job to start running", func() bool {
		return srv.Scheduler().Running() == 1
	})
	cancel() // the client disconnects; the solver keeps ignoring its context

	select {
	case <-handlerDone:
	case <-time.After(5 * time.Second):
		t.Fatal("sync-solve handler still blocked 5s after client disconnect; bounded wait not applied")
	}
	if n := srv.Metrics().AbandonedWaits(); n != 1 {
		t.Errorf("AbandonedWaits = %d, want 1", n)
	}
	releaseGate(gate) // free the worker so Close does not hang
}

// TestSolveSyncDisconnectNoLeak hammers the disconnect path with real
// solves and checks (under -race in CI) that no handler or job
// goroutine outlives its request.
func TestSolveSyncDisconnectNoLeak(t *testing.T) {
	srv, ts := newTestServer(t, Options{Workers: 2, CancelWait: time.Second})
	var sb strings.Builder
	if err := mbb.WriteGraph(&sb, mbb.GenerateDense(30, 30, 0.9, 1)); err != nil {
		t.Fatal(err)
	}
	putGraph(t, ts, "dense", sb.String(), "")
	solveSync(t, ts, "dense", `{"timeout":"10s"}`) // warm plan and connections

	baseline := runtime.NumGoroutine()
	client := &http.Client{}
	for i := 0; i < 25; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), time.Duration(1+i%5)*time.Millisecond)
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/graphs/dense/solve",
			strings.NewReader(`{"timeout":"10s"}`))
		if err != nil {
			t.Fatal(err)
		}
		if resp, err := client.Do(req); err == nil {
			resp.Body.Close()
		}
		cancel()
	}
	client.CloseIdleConnections()

	waitFor(t, 10*time.Second, "jobs to reach terminal states", func() bool {
		return srv.Scheduler().Live() == 0
	})
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > baseline+3 {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d live, baseline %d — disconnected solves leaked handlers or jobs",
				runtime.NumGoroutine(), baseline)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestDrainCompletesInFlight drives the SIGTERM sequence through the
// library API: in-flight jobs stay pollable and finish, new submissions
// bounce with Retry-After, and WaitIdle returns once the last job ends.
func TestDrainCompletesInFlight(t *testing.T) {
	gate := registerStallSolver(t)
	srv, ts := newTestServer(t, Options{Workers: 1, QueueCap: 4})
	putGraph(t, ts, "g", k33, "")

	resp, data := do(t, http.MethodPost, ts.URL+"/graphs/g/jobs", strings.NewReader(stallBody))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, data)
	}
	job := decode[JobInfo](t, data)
	waitFor(t, 5*time.Second, "job to start", func() bool { return srv.Scheduler().Running() == 1 })

	srv.BeginDrain()
	if !srv.Draining() {
		t.Fatal("Draining() = false after BeginDrain")
	}
	if resp, _ := do(t, http.MethodPost, ts.URL+"/graphs/g/jobs", strings.NewReader("{}")); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit during drain: status %d, want 503", resp.StatusCode)
	}
	if resp, _ := do(t, http.MethodGet, ts.URL+"/jobs/"+job.ID, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("job poll during drain: status %d, want 200", resp.StatusCode)
	}

	go func() {
		time.Sleep(30 * time.Millisecond)
		releaseGate(gate)
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.WaitIdle(ctx); err != nil {
		t.Fatalf("WaitIdle during drain: %v", err)
	}
	_, data = do(t, http.MethodGet, ts.URL+"/jobs/"+job.ID, nil)
	if got := decode[JobInfo](t, data); !got.State.Terminal() {
		t.Errorf("in-flight job after drain: state %q, want terminal", got.State)
	}
}

// TestJobCarriesRequestID checks the trace join: the X-Request-Id of
// the submitting request must surface in the job's status view.
func TestJobCarriesRequestID(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	putGraph(t, ts, "k33", k33, "")
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/graphs/k33/solve", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-Id", "trace-42")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get("X-Request-Id"); got != "trace-42" {
		t.Errorf("response X-Request-Id = %q, want trace-42", got)
	}
	var info JobInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	if info.RequestID != "trace-42" {
		t.Errorf("job request_id = %q, want trace-42", info.RequestID)
	}
}
