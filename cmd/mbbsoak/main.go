// Command mbbsoak hammers an mbbserved daemon with a mixed
// upload/mutate/solve/cancel/status workload for a configurable
// duration and then asserts that nothing leaked: every job reaches a
// terminal state, historical graph snapshots become collectible, and —
// in in-process mode — the goroutine count returns to its baseline.
//
// Usage:
//
//	mbbsoak [-duration 60s] [-clients 8] [-graphs 6] [-seed 1] [-url http://host:port]
//	        [-restart [-data-dir dir]]
//
// With no -url it starts an in-process daemon on an ephemeral port,
// runs the workload over real TCP (so client disconnects exercise the
// real cancellation path), drains it exactly like SIGTERM would —
// asserting that a submit during the drain gets 503 + Retry-After —
// and finally checks the three leak gauges. With -url it targets a
// remote daemon and limits the leak assertions to what /stats and
// /metrics expose (no goroutine baseline across a process boundary).
//
// -restart makes the in-process daemon durable (write-ahead log under
// -data-dir, interval sync, aggressive checkpointing) and adds a final
// phase: a second server recovers the log and must reconstruct exactly
// the drained state, with the snapshot-leak gauge settling at the
// recovered retention windows.
//
// -cluster N runs the workload against an in-process N-worker cluster
// behind a coordinator: every worker is durable, tails its peers'
// /replicate streams, and the workload flows through the coordinator's
// routing (so misdirected requests would surface as failures). The
// admission statuses the cluster legitimately produces (429 at
// saturation, 503 during bring-up) are tolerated and counted; the final
// phase asserts every graph converged to its shard owner's exact epoch
// on every worker before the leak gauges run, and the OK line reports
// the fleet's replicated records and resyncs.
//
// Exit status 0 means the workload ran clean and nothing leaked; any
// unexpected response or leaked resource prints a diagnosis and exits 1.
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"encoding/json"

	"repro/internal/cluster"
	"repro/internal/server"
	"repro/mbb"
)

type counters struct {
	uploads, solves, submits, cancels, mutates,
	reads, deletes, disconnects, retried atomic.Int64
}

// failures collects the first few unexpected outcomes verbatim; any
// entry fails the soak.
type failures struct {
	mu    sync.Mutex
	n     int
	msgs  []string
	limit int
}

func (f *failures) addf(format string, args ...any) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.n++
	if len(f.msgs) < f.limit {
		f.msgs = append(f.msgs, fmt.Sprintf(format, args...))
	}
}

func main() { os.Exit(run()) }

func run() int {
	duration := flag.Duration("duration", 60*time.Second, "how long to run the mixed workload")
	clients := flag.Int("clients", 8, "concurrent workload clients")
	graphs := flag.Int("graphs", 6, "distinct graph names in play")
	seed := flag.Int64("seed", 1, "workload RNG seed")
	url := flag.String("url", "", "target daemon base URL (empty = in-process)")
	workers := flag.Int("workers", 0, "in-process daemon worker pool (0 = GOMAXPROCS)")
	restart := flag.Bool("restart", false, "in-process only: run durable (WAL on -data-dir), reopen after the drain and assert recovery equality + zero snapshot leaks")
	dataDir := flag.String("data-dir", "", "WAL directory for -restart (default: a fresh temp dir)")
	clusterN := flag.Int("cluster", 0, "run against an in-process N-worker cluster behind a coordinator (N >= 2)")
	flag.Parse()

	if *clusterN != 0 {
		if *clusterN < 2 || *url != "" || *restart {
			fmt.Fprintln(os.Stderr, "mbbsoak: -cluster needs N >= 2 and neither -url nor -restart")
			return 1
		}
		return runCluster(*clusterN, *duration, *clients, *graphs, *seed, *workers)
	}

	if *restart && *url != "" {
		fmt.Fprintln(os.Stderr, "mbbsoak: -restart needs the in-process daemon (drop -url)")
		return 1
	}
	if *restart && *dataDir == "" {
		d, err := os.MkdirTemp("", "mbbsoak-wal-")
		if err != nil {
			fmt.Fprintln(os.Stderr, "mbbsoak:", err)
			return 1
		}
		defer os.RemoveAll(d)
		*dataDir = d
	}

	baseGoroutines := runtime.NumGoroutine()

	var (
		srv  *server.Server
		hs   *http.Server
		base string
	)
	if *url == "" {
		opt := server.Options{
			Workers:        *workers,
			QueueCap:       64,
			DefaultTimeout: 5 * time.Second,
			MaxTimeout:     10 * time.Second,
			CancelWait:     5 * time.Second,
			AccessLog:      nil, // counted, not written — the soak measures, it does not archive
		}
		if *restart {
			// Durable mode: interval sync keeps upload-heavy soak traffic
			// off the fsync critical path; a small checkpoint threshold
			// makes background compaction actually fire during the run.
			opt.DataDir = *dataDir
			opt.WALSync = "interval"
			opt.CheckpointEvery = 256
			opt.RetainEpochs = 4
		}
		var err error
		srv, err = server.New(opt)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mbbsoak:", err)
			return 1
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			fmt.Fprintln(os.Stderr, "mbbsoak:", err)
			return 1
		}
		hs = &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
		go hs.Serve(ln)
		base = "http://" + ln.Addr().String()
		fmt.Printf("mbbsoak: in-process daemon on %s\n", base)
	} else {
		base = strings.TrimRight(*url, "/")
		fmt.Printf("mbbsoak: targeting %s\n", base)
	}

	tr := &http.Transport{MaxIdleConns: *clients * 2, MaxIdleConnsPerHost: *clients * 2}
	httpc := &http.Client{Transport: tr, Timeout: 30 * time.Second}

	ctr := &counters{}
	fails := &failures{limit: 20}
	ctx, cancel := context.WithTimeout(context.Background(), *duration)
	defer cancel()

	var wg sync.WaitGroup
	for i := 0; i < *clients; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c := &soakClient{
				id: id, base: base, httpc: httpc,
				rng:    rand.New(rand.NewSource(*seed + int64(id))),
				graphs: *graphs, ctr: ctr, fails: fails,
			}
			c.loop(ctx)
		}(i)
	}
	wg.Wait()

	ops := ctr.uploads.Load() + ctr.solves.Load() + ctr.submits.Load() + ctr.cancels.Load() +
		ctr.mutates.Load() + ctr.reads.Load() + ctr.deletes.Load() + ctr.disconnects.Load()
	fmt.Printf("mbbsoak: %v elapsed, %d ops (uploads %d, solves %d, submits %d, cancels %d, mutates %d, reads %d, deletes %d, disconnects %d, 503-retries %d)\n",
		*duration, ops, ctr.uploads.Load(), ctr.solves.Load(), ctr.submits.Load(), ctr.cancels.Load(),
		ctr.mutates.Load(), ctr.reads.Load(), ctr.deletes.Load(), ctr.disconnects.Load(), ctr.retried.Load())

	// Phase 2: quiesce — every job must reach a terminal state.
	if !waitJobsIdle(httpc, base, srv, 30*time.Second) {
		fails.addf("jobs still live 30s after the workload stopped")
	}

	// /metrics must serve and expose the request counters.
	if body, status := get(httpc, base+"/metrics"); status != http.StatusOK {
		fails.addf("/metrics returned %d", status)
	} else if !strings.Contains(body, "mbbserved_requests_total") || !strings.Contains(body, "mbbserved_jobs_submitted_total") {
		fails.addf("/metrics is missing expected series")
	}

	if srv != nil {
		// Phase 3: drain exactly like SIGTERM, asserting its contract.
		// The probe graph must exist — the handler 404s unknown names
		// before the scheduler can say ErrDraining.
		var pbuf bytes.Buffer
		mbb.WriteGraph(&pbuf, mbb.GenerateDense(4, 4, 1.0, 1))
		req, _ := http.NewRequest(http.MethodPut, base+"/graphs/drainprobe", &pbuf)
		if resp, err := httpc.Do(req); err != nil {
			fails.addf("upload drain probe: %v", err)
		} else {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusCreated {
				fails.addf("upload drain probe: status %d", resp.StatusCode)
			}
		}
		srv.BeginDrain()
		resp, err := httpc.Post(base+"/graphs/drainprobe/jobs", "application/json", strings.NewReader("{}"))
		if err != nil {
			fails.addf("submit during drain: %v", err)
		} else {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusServiceUnavailable {
				fails.addf("submit during drain returned %d, want 503", resp.StatusCode)
			} else if resp.Header.Get("Retry-After") == "" {
				fails.addf("drain 503 lacks Retry-After")
			}
		}
		drainCtx, cancelDrain := context.WithTimeout(context.Background(), 15*time.Second)
		if err := srv.WaitIdle(drainCtx); err != nil {
			fails.addf("drain did not go idle: %v", err)
		}
		cancelDrain()
		shutCtx, cancelShut := context.WithTimeout(context.Background(), 5*time.Second)
		if err := hs.Shutdown(shutCtx); err != nil {
			fails.addf("http shutdown: %v", err)
		}
		cancelShut()
		srv.Close()
		tr.CloseIdleConnections()

		// Phase 4: leak gauges. Snapshots: after the drain every job
		// released its pin, so GC must get the count back to one live
		// snapshot per stored graph. Goroutines: back to the pre-daemon
		// baseline.
		stored := int64(srv.Store().Len())
		if !eventually(10*time.Second, func() bool {
			runtime.GC()
			return server.LiveSnapshots() <= stored
		}) {
			fails.addf("snapshot leak: %d live, want <= %d (one per stored graph)", server.LiveSnapshots(), stored)
		}
		if !eventually(10*time.Second, func() bool {
			runtime.GC()
			return runtime.NumGoroutine() <= baseGoroutines
		}) {
			fails.addf("goroutine leak: %d live, baseline %d", runtime.NumGoroutine(), baseGoroutines)
			pprof.Lookup("goroutine").WriteTo(os.Stderr, 1)
		}
		if n := srv.Metrics().Panics(); n > 0 {
			fails.addf("%d handler panics during the soak", n)
		}

		// Phase 5 (-restart): reopen the WAL directory in a fresh server
		// and assert recovery lands on exactly the drained state. The
		// listing is the first daemon's last use, so the GC can reclaim
		// its entire snapshot history during the phase.
		if *restart {
			soakRestart(srv.Store().List(), *dataDir, *workers, fails)
		}
	}

	fails.mu.Lock()
	defer fails.mu.Unlock()
	if fails.n > 0 {
		fmt.Fprintf(os.Stderr, "mbbsoak: FAIL: %d unexpected outcomes\n", fails.n)
		for _, m := range fails.msgs {
			fmt.Fprintln(os.Stderr, "mbbsoak:   ", m)
		}
		return 1
	}
	fmt.Println("mbbsoak: OK — zero leaked goroutines, jobs and snapshots")
	return 0
}

// soakRestart is the -restart phase: a second server recovers the WAL
// directory the drained daemon wrote, and must reconstruct exactly the
// graphs it was serving — same names, epochs and sizes. Afterwards the
// snapshot-leak gauge must settle at the recovered retention windows:
// the first daemon's whole snapshot history has to be collectible.
func soakRestart(want []server.GraphInfo, dataDir string, workers int, fails *failures) {
	type gkey struct {
		Name          string
		Epoch         uint64
		NL, NR, Edges int
	}
	wantSet := make(map[gkey]bool, len(want))
	for _, gi := range want {
		wantSet[gkey{gi.Name, gi.Epoch, gi.NL, gi.NR, gi.Edges}] = true
	}
	srv, err := server.New(server.Options{
		Workers: workers, DataDir: dataDir, WALSync: "interval", RetainEpochs: 4,
	})
	if err != nil {
		fails.addf("reopen %s: %v", dataDir, err)
		return
	}
	defer srv.Close()
	rs := srv.RecoveredStats()
	fmt.Printf("mbbsoak: restart recovered %d graphs (%d records: %d puts, %d snaps, %d deltas; %d segments)\n",
		rs.Graphs, rs.Records, rs.Puts, rs.Snaps, rs.Deltas, rs.Segments)
	got := make(map[gkey]bool)
	for _, gi := range srv.Store().List() {
		got[gkey{gi.Name, gi.Epoch, gi.NL, gi.NR, gi.Edges}] = true
	}
	for k := range wantSet {
		if !got[k] {
			fails.addf("restart lost graph %+v", k)
		}
	}
	for k := range got {
		if !wantSet[k] {
			fails.addf("restart invented graph %+v", k)
		}
	}
	if !eventually(10*time.Second, func() bool {
		runtime.GC()
		return server.LiveSnapshots() <= srv.Store().RetainedSnapshots()
	}) {
		fails.addf("snapshot leak across restart: %d live, want <= %d retained",
			server.LiveSnapshots(), srv.Store().RetainedSnapshots())
	}
}

// runCluster is the -cluster pass: N durable workers on one hash ring
// behind a coordinator, the whole workload routed through the
// coordinator, then convergence and leak assertions.
func runCluster(n int, duration time.Duration, clients, graphs int, seed int64, workers int) int {
	baseGoroutines := runtime.NumGoroutine()
	fails := &failures{limit: 20}

	type node struct {
		srv *server.Server
		hs  *http.Server
		tm  *cluster.TailManager
		url string
	}
	nodes := make([]*node, n)
	var peers []string
	lns := make([]net.Listener, n)
	for i := range nodes {
		dir, err := os.MkdirTemp("", "mbbsoak-cluster-")
		if err != nil {
			fmt.Fprintln(os.Stderr, "mbbsoak:", err)
			return 1
		}
		defer os.RemoveAll(dir)
		srv, err := server.New(server.Options{
			Workers: workers, QueueCap: 64,
			DefaultTimeout: 5 * time.Second, MaxTimeout: 10 * time.Second,
			CancelWait: 5 * time.Second,
			DataDir:    dir, WALSync: "interval", CheckpointEvery: 256, RetainEpochs: 4,
			MaxReplicaLag: -1, // no kills in this pass; never lag-gate the workload
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "mbbsoak:", err)
			return 1
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			fmt.Fprintln(os.Stderr, "mbbsoak:", err)
			return 1
		}
		lns[i] = ln
		nodes[i] = &node{srv: srv, url: "http://" + ln.Addr().String()}
		peers = append(peers, nodes[i].url)
	}
	for i, nd := range nodes {
		tm, err := cluster.NewTailManager(nd.srv.Store(), cluster.Config{Self: nd.url, Peers: peers, Replication: n})
		if err != nil {
			fmt.Fprintln(os.Stderr, "mbbsoak:", err)
			return 1
		}
		nd.tm = tm
		nd.srv.SetCluster(tm)
		nd.hs = &http.Server{Handler: nd.srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
		go nd.hs.Serve(lns[i])
		tm.Start()
	}

	coord, err := cluster.NewCoordinator(cluster.CoordinatorConfig{
		Peers: peers, Replication: n, ProbeInterval: 100 * time.Millisecond,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "mbbsoak:", err)
		return 1
	}
	coord.Start()
	cln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Fprintln(os.Stderr, "mbbsoak:", err)
		return 1
	}
	chs := &http.Server{Handler: server.Chain(coord.Handler(), server.RequestID), ReadHeaderTimeout: 10 * time.Second}
	go chs.Serve(cln)
	base := "http://" + cln.Addr().String()
	fmt.Printf("mbbsoak: %d-worker cluster behind coordinator %s\n", n, base)

	tr := &http.Transport{MaxIdleConns: clients * 2, MaxIdleConnsPerHost: clients * 2}
	httpc := &http.Client{Transport: tr, Timeout: 30 * time.Second}

	if !eventually(10*time.Second, func() bool {
		body, status := get(httpc, base+"/readyz")
		return status == http.StatusOK && strings.Contains(body, fmt.Sprintf(`"workers_ready":%d`, n))
	}) {
		fails.addf("cluster never reached %d ready workers", n)
	}

	ctr := &counters{}
	ctx, cancel := context.WithTimeout(context.Background(), duration)
	defer cancel()
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c := &soakClient{
				id: id, base: base, httpc: httpc,
				rng:    rand.New(rand.NewSource(seed + int64(id))),
				graphs: graphs, ctr: ctr, fails: fails,
				extra: []int{http.StatusTooManyRequests, http.StatusServiceUnavailable},
			}
			c.loop(ctx)
		}(i)
	}
	wg.Wait()

	ops := ctr.uploads.Load() + ctr.solves.Load() + ctr.submits.Load() + ctr.cancels.Load() +
		ctr.mutates.Load() + ctr.reads.Load() + ctr.deletes.Load() + ctr.disconnects.Load()
	fmt.Printf("mbbsoak: %v elapsed, %d ops via coordinator (uploads %d, solves %d, submits %d, cancels %d, mutates %d, reads %d, deletes %d, disconnects %d, backoffs %d)\n",
		duration, ops, ctr.uploads.Load(), ctr.solves.Load(), ctr.submits.Load(), ctr.cancels.Load(),
		ctr.mutates.Load(), ctr.reads.Load(), ctr.deletes.Load(), ctr.disconnects.Load(), ctr.retried.Load())

	// Quiesce every worker's scheduler.
	for _, nd := range nodes {
		nd := nd
		if !eventually(30*time.Second, func() bool { return nd.srv.Scheduler().Live() == 0 }) {
			fails.addf("worker %s still has live jobs 30s after the workload stopped", nd.url)
		}
	}

	// The coordinator's own metrics must serve.
	if body, status := get(httpc, base+"/metrics"); status != http.StatusOK {
		fails.addf("coordinator /metrics returned %d", status)
	} else if !strings.Contains(body, "mbbcoord_forwards_total") || !strings.Contains(body, "mbbcoord_workers_ready") {
		fails.addf("coordinator /metrics is missing mbbcoord series")
	}

	// Convergence: every worker must reach its shard owner's exact state
	// (same epoch and shape, or the same absence) for every graph name.
	graphKey := func(url, name string) string {
		body, status := get(httpc, url+"/graphs/"+name)
		if status == http.StatusNotFound {
			return "absent"
		}
		if status != http.StatusOK {
			return fmt.Sprintf("status-%d", status)
		}
		var gi server.GraphInfo
		if err := json.Unmarshal([]byte(body), &gi); err != nil {
			return "undecodable"
		}
		return fmt.Sprintf("epoch=%d nl=%d nr=%d edges=%d", gi.Epoch, gi.NL, gi.NR, gi.Edges)
	}
	ring := nodes[0].tm.Ring()
	for g := 0; g < graphs; g++ {
		name := fmt.Sprintf("soak%d", g)
		owner := ring.Owner(name)
		if !eventually(20*time.Second, func() bool {
			want := graphKey(owner, name)
			for _, nd := range nodes {
				if graphKey(nd.url, name) != want {
					return false
				}
			}
			return true
		}) {
			detail := ""
			for _, nd := range nodes {
				detail += fmt.Sprintf(" %s:[%s]", nd.url, graphKey(nd.url, name))
			}
			fails.addf("graph %s never converged to owner %s's state:%s", name, owner, detail)
		}
	}

	// Shutdown: stop tailing first (so /replicate handlers unblock), then
	// the coordinator, then the workers. The fleet's replication totals
	// go on the OK line: a resync loop shows as resyncs piling up.
	var resyncs, applied int64
	for _, nd := range nodes {
		nd.tm.Close()
		st := nd.tm.Status()
		resyncs += st.Resyncs
		applied += st.Applied
	}
	coord.Close()
	shutCtx, cancelShut := context.WithTimeout(context.Background(), 10*time.Second)
	if err := chs.Shutdown(shutCtx); err != nil {
		fails.addf("coordinator shutdown: %v", err)
	}
	for _, nd := range nodes {
		if err := nd.hs.Shutdown(shutCtx); err != nil {
			fails.addf("worker shutdown: %v", err)
		}
		nd.srv.Close()
	}
	cancelShut()
	tr.CloseIdleConnections()

	// Leak gauges across the whole fleet.
	var retained int64
	for _, nd := range nodes {
		retained += nd.srv.Store().RetainedSnapshots()
		if p := nd.srv.Metrics().Panics(); p > 0 {
			fails.addf("%d handler panics on worker %s", p, nd.url)
		}
	}
	if !eventually(10*time.Second, func() bool {
		runtime.GC()
		return server.LiveSnapshots() <= retained
	}) {
		fails.addf("snapshot leak: %d live, want <= %d retained across %d workers", server.LiveSnapshots(), retained, n)
	}
	if !eventually(10*time.Second, func() bool {
		runtime.GC()
		return runtime.NumGoroutine() <= baseGoroutines
	}) {
		fails.addf("goroutine leak: %d live, baseline %d", runtime.NumGoroutine(), baseGoroutines)
		pprof.Lookup("goroutine").WriteTo(os.Stderr, 1)
	}

	fails.mu.Lock()
	defer fails.mu.Unlock()
	if fails.n > 0 {
		fmt.Fprintf(os.Stderr, "mbbsoak: FAIL: %d unexpected outcomes\n", fails.n)
		for _, m := range fails.msgs {
			fmt.Fprintln(os.Stderr, "mbbsoak:   ", m)
		}
		return 1
	}
	fmt.Printf("mbbsoak: OK — %d workers converged (%d records replicated, %d resyncs), zero leaked goroutines, jobs and snapshots\n", n, applied, resyncs)
	return 0
}

// eventually polls cond (with backoff) until it holds or the deadline
// passes.
func eventually(d time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(d)
	for wait := 10 * time.Millisecond; ; wait *= 2 {
		if cond() {
			return true
		}
		if time.Now().After(deadline) {
			return cond()
		}
		if wait > 500*time.Millisecond {
			wait = 500 * time.Millisecond
		}
		time.Sleep(wait)
	}
}

// waitJobsIdle waits until no job is queued or running — directly off
// the scheduler in-process, via /stats against a remote daemon.
func waitJobsIdle(httpc *http.Client, base string, srv *server.Server, d time.Duration) bool {
	return eventually(d, func() bool {
		if srv != nil {
			return srv.Scheduler().Live() == 0
		}
		body, status := get(httpc, base+"/stats")
		if status != http.StatusOK {
			return false
		}
		return strings.Contains(body, `"queued":0`) && strings.Contains(body, `"running":0`)
	})
}

func get(httpc *http.Client, url string) (string, int) {
	resp, err := httpc.Get(url)
	if err != nil {
		return err.Error(), 0
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return string(b), resp.StatusCode
}

// soakClient is one workload generator: a weighted mix of every API
// verb, tolerant of the statuses concurrency legitimately produces
// (404 after a concurrent delete, 503 at the admission bound, 400 for
// out-of-range edges after a concurrent re-upload) and intolerant of
// everything else.
type soakClient struct {
	id     int
	base   string
	httpc  *http.Client
	rng    *rand.Rand
	graphs int
	ctr    *counters
	fails  *failures
	nreq   int
	// extra statuses tolerated on every op — cluster mode adds the
	// coordinator's admission answers (429 saturation, 503 bring-up).
	extra []int
}

func (c *soakClient) graphName() string {
	return fmt.Sprintf("soak%d", c.rng.Intn(c.graphs))
}

func (c *soakClient) reqID() string {
	c.nreq++
	return fmt.Sprintf("soak-c%d-%d", c.id, c.nreq)
}

func (c *soakClient) loop(ctx context.Context) {
	// Seed one graph so the first solves have something to chew on.
	c.upload(ctx)
	for ctx.Err() == nil {
		switch p := c.rng.Intn(100); {
		case p < 8:
			c.upload(ctx)
		case p < 38:
			c.solveSync(ctx)
		case p < 58:
			c.mutate(ctx)
		case p < 74:
			c.submitPollCancel(ctx)
		case p < 82:
			c.disconnectSolve(ctx)
		case p < 95:
			c.read(ctx)
		default:
			c.deleteGraph(ctx)
		}
	}
}

// do runs one request with a soak request id and returns status + body;
// status 0 means the request itself failed (only tolerated when the
// context canceled it).
func (c *soakClient) do(ctx context.Context, method, path, body string) (int, string) {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, strings.NewReader(body))
	if err != nil {
		c.fails.addf("build %s %s: %v", method, path, err)
		return 0, ""
	}
	req.Header.Set("X-Request-Id", c.reqID())
	resp, err := c.httpc.Do(req)
	if err != nil {
		if ctx.Err() == nil {
			c.fails.addf("%s %s: %v", method, path, err)
		}
		return 0, ""
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(b)
}

func (c *soakClient) expect(status int, body, op string, want ...int) {
	if status == 0 {
		return // transport error already recorded (or context over)
	}
	for _, w := range append(want, c.extra...) {
		if status == w {
			if status == http.StatusServiceUnavailable || status == http.StatusTooManyRequests {
				c.ctr.retried.Add(1)
			}
			return
		}
	}
	c.fails.addf("%s: unexpected status %d: %.200s", op, status, body)
}

func (c *soakClient) upload(ctx context.Context) {
	var g *mbb.Graph
	if c.rng.Intn(2) == 0 {
		n := 20 + c.rng.Intn(100)
		g = mbb.GeneratePowerLaw(n, n, 3*n, c.rng.Int63())
	} else {
		n := 8 + c.rng.Intn(12)
		g = mbb.GenerateDense(n, n, 0.5+0.4*c.rng.Float64(), c.rng.Int63())
	}
	var buf bytes.Buffer
	if err := mbb.WriteGraph(&buf, g); err != nil {
		c.fails.addf("generate graph: %v", err)
		return
	}
	status, body := c.do(ctx, http.MethodPut, "/graphs/"+c.graphName(), buf.String())
	c.expect(status, body, "upload", http.StatusCreated)
	c.ctr.uploads.Add(1)
}

func (c *soakClient) solveSync(ctx context.Context) {
	body := fmt.Sprintf(`{"timeout":"%dms"}`, 200+c.rng.Intn(1800))
	status, out := c.do(ctx, http.MethodPost, "/graphs/"+c.graphName()+"/solve", body)
	c.expect(status, out, "solve", http.StatusOK, http.StatusNotFound, http.StatusServiceUnavailable)
	c.ctr.solves.Add(1)
}

func (c *soakClient) mutate(ctx context.Context) {
	// In-range for the generator's smallest graphs; larger indices 400
	// cleanly when a smaller graph took the name — both are fine.
	edge := func() string { return fmt.Sprintf("[%d,%d]", c.rng.Intn(20), c.rng.Intn(20)) }
	var body string
	if c.rng.Intn(3) == 0 {
		body = fmt.Sprintf(`{"del":[%s,%s]}`, edge(), edge())
	} else {
		body = fmt.Sprintf(`{"add":[%s],"del":[%s]}`, edge(), edge())
	}
	status, out := c.do(ctx, http.MethodPost, "/graphs/"+c.graphName()+"/edges", body)
	c.expect(status, out, "mutate", http.StatusOK, http.StatusBadRequest, http.StatusNotFound)
	c.ctr.mutates.Add(1)
}

func (c *soakClient) submitPollCancel(ctx context.Context) {
	status, out := c.do(ctx, http.MethodPost, "/graphs/"+c.graphName()+"/jobs",
		fmt.Sprintf(`{"timeout":"%dms"}`, 500+c.rng.Intn(2500)))
	c.ctr.submits.Add(1)
	c.expect(status, out, "submit", http.StatusAccepted, http.StatusNotFound, http.StatusServiceUnavailable)
	if status != http.StatusAccepted {
		return
	}
	id := extractID(out)
	if id == "" {
		c.fails.addf("submit: no job id in %.200s", out)
		return
	}
	if c.rng.Intn(10) < 3 {
		st, body := c.do(ctx, http.MethodDelete, "/jobs/"+id, "")
		c.expect(st, body, "cancel", http.StatusOK, http.StatusNotFound)
		c.ctr.cancels.Add(1)
	}
	st, body := c.do(ctx, http.MethodGet, "/jobs/"+id+"?wait=1", "")
	c.expect(st, body, "job status", http.StatusOK, http.StatusNotFound)
}

// disconnectSolve starts a synchronous solve and walks away mid-flight:
// the server must cancel the job and the handler must not linger.
func (c *soakClient) disconnectSolve(ctx context.Context) {
	short, cancel := context.WithTimeout(ctx, time.Duration(20+c.rng.Intn(200))*time.Millisecond)
	defer cancel()
	status, out := c.do(short, http.MethodPost, "/graphs/"+c.graphName()+"/solve", `{"timeout":"5s"}`)
	// Usually the client context expires first (status 0); a fast solve
	// returning 200/404/503 before the deadline is fine too.
	c.expect(status, out, "disconnect solve", http.StatusOK, http.StatusNotFound, http.StatusServiceUnavailable)
	c.ctr.disconnects.Add(1)
}

func (c *soakClient) read(ctx context.Context) {
	paths := [...]string{"/stats", "/graphs", "/jobs", "/metrics", "/healthz", "/graphs/" + c.graphName()}
	path := paths[c.rng.Intn(len(paths))]
	status, out := c.do(ctx, http.MethodGet, path, "")
	c.expect(status, out, "read "+path, http.StatusOK, http.StatusNotFound)
	c.ctr.reads.Add(1)
}

func (c *soakClient) deleteGraph(ctx context.Context) {
	status, out := c.do(ctx, http.MethodDelete, "/graphs/"+c.graphName(), "")
	c.expect(status, out, "delete graph", http.StatusOK, http.StatusNotFound)
	c.ctr.deletes.Add(1)
}

// extractID pulls `"id":"..."` out of a JobInfo response without a full
// decode (the soak treats the daemon as a black box over the wire).
func extractID(body string) string {
	const key = `"id":"`
	i := strings.Index(body, key)
	if i < 0 {
		return ""
	}
	rest := body[i+len(key):]
	j := strings.IndexByte(rest, '"')
	if j < 0 {
		return ""
	}
	return rest[:j]
}
