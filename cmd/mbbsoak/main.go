// Command mbbsoak hammers mbbserved with a mixed
// upload/mutate/solve/cancel/status workload for a configurable
// duration and then asserts that nothing leaked: every job reaches a
// terminal state, historical graph snapshots become collectible, and
// the goroutine count returns to its baseline.
//
// Usage:
//
//	mbbsoak [-duration 60s] [-clients 8] [-graphs 6] [-seed 1] [-workers 0]
//	        [-url http://host:port | -restart [-data-dir dir] | -cluster N]
//
// The workload runs over real TCP, so client disconnects exercise the
// real cancellation path, against one of these fleets:
//
//   - by default, one in-process daemon. After the workload it is
//     drained exactly like SIGTERM would, asserting that a submit during
//     the drain gets 503 + Retry-After.
//   - -restart makes that daemon durable (write-ahead log under
//     -data-dir, interval sync, aggressive checkpointing) and adds a
//     final phase: a second server recovers the log, must reconstruct
//     exactly the drained state, and is put through the leak gauges in
//     turn.
//   - -cluster N runs N durable workers on one hash ring, each tailing
//     its peers' /replicate streams, behind a coordinator that routes
//     the whole workload (so misdirected requests surface as failures).
//     The admission statuses a cluster legitimately produces (429 at
//     saturation, 503 during bring-up) are tolerated and counted, and
//     every graph must converge to its shard owner's exact epoch on
//     every worker.
//   - -url targets a remote daemon; the checks are limited to what
//     /stats and /metrics expose.
//
// The leak gauges run on every in-process fleet once it is shut down:
// live snapshots must fall to what the stores' retention windows hold,
// goroutines to the baseline taken before the fleet started, and no
// handler may have panicked.
//
// Exit status 0 means the workload ran clean and nothing leaked; any
// unexpected response or leaked resource prints a diagnosis and exits 1.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"sync/atomic"
	"time"

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

	if *clusterN != 0 && (*clusterN < 2 || *url != "" || *restart) {
		fmt.Fprintln(os.Stderr, "mbbsoak: -cluster needs N >= 2 and neither -url nor -restart")
		return 1
	}
	if *restart && *url != "" {
		fmt.Fprintln(os.Stderr, "mbbsoak: -restart needs the in-process daemon (drop -url)")
		return 1
	}
	tmp, err := os.MkdirTemp("", "mbbsoak-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "mbbsoak:", err)
		return 1
	}
	defer os.RemoveAll(tmp)
	if *restart && *dataDir == "" {
		*dataDir = tmp
	}

	baseGoroutines := runtime.NumGoroutine()
	fails := &failures{limit: 20}

	// One data directory per in-process daemon; "" keeps a single
	// daemon volatile.
	var dirs []string
	switch {
	case *clusterN > 0:
		for i := 0; i < *clusterN; i++ {
			dirs = append(dirs, filepath.Join(tmp, fmt.Sprintf("worker%d", i)))
		}
	case *restart:
		dirs = []string{*dataDir}
	case *url == "":
		dirs = []string{""}
	}
	f := &fleet{base: strings.TrimRight(*url, "/")}
	if len(dirs) > 0 {
		if f, err = startFleet(dirs, *workers); err != nil {
			fmt.Fprintln(os.Stderr, "mbbsoak:", err)
			return 1
		}
	} else {
		fmt.Printf("mbbsoak: targeting %s\n", f.base)
	}

	tr := &http.Transport{MaxIdleConns: *clients * 2, MaxIdleConnsPerHost: *clients * 2}
	httpc := &http.Client{Transport: tr, Timeout: 30 * time.Second}

	var extra []int
	if f.coord != nil {
		if !eventually(10*time.Second, func() bool {
			body, status := get(httpc, f.base+"/readyz")
			return status == http.StatusOK && strings.Contains(body, fmt.Sprintf(`"workers_ready":%d`, len(f.nodes)))
		}) {
			fails.addf("cluster never reached %d ready workers", len(f.nodes))
		}
		extra = []int{http.StatusTooManyRequests, http.StatusServiceUnavailable}
	}

	ctr := &counters{}
	ctx, cancel := context.WithTimeout(context.Background(), *duration)
	defer cancel()
	var wg sync.WaitGroup
	for i := 0; i < *clients; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c := &soakClient{
				id: id, base: f.base, httpc: httpc,
				rng:    rand.New(rand.NewSource(*seed + int64(id))),
				graphs: *graphs, ctr: ctr, fails: fails, extra: extra,
			}
			c.loop(ctx)
		}(i)
	}
	wg.Wait()

	ops := ctr.uploads.Load() + ctr.solves.Load() + ctr.submits.Load() + ctr.cancels.Load() +
		ctr.mutates.Load() + ctr.reads.Load() + ctr.deletes.Load() + ctr.disconnects.Load()
	fmt.Printf("mbbsoak: %v elapsed, %d ops (uploads %d, solves %d, submits %d, cancels %d, mutates %d, reads %d, deletes %d, disconnects %d, 429/503 backoffs %d)\n",
		*duration, ops, ctr.uploads.Load(), ctr.solves.Load(), ctr.submits.Load(), ctr.cancels.Load(),
		ctr.mutates.Load(), ctr.reads.Load(), ctr.deletes.Load(), ctr.disconnects.Load(), ctr.retried.Load())

	// Quiesce: every job must reach a terminal state.
	if !eventually(30*time.Second, func() bool { return f.idle(httpc) }) {
		fails.addf("jobs still live 30s after the workload stopped")
	}

	// /metrics must serve and expose the front end's request counters.
	series := []string{"mbbserved_requests_total", "mbbserved_jobs_submitted_total"}
	if f.coord != nil {
		series = []string{"mbbcoord_forwards_total", "mbbcoord_workers_ready"}
	}
	if body, status := get(httpc, f.base+"/metrics"); status != http.StatusOK {
		fails.addf("/metrics returned %d", status)
	} else {
		for _, s := range series {
			if !strings.Contains(body, s) {
				fails.addf("/metrics is missing %s", s)
			}
		}
	}

	switch {
	case len(f.nodes) == 0:
		// A remote daemon: no drain, no goroutine baseline across a
		// process boundary.
	case f.coord == nil:
		drainProbe(httpc, f.nodes[0], fails)
	default:
		f.converge(httpc, *graphs, fails)
	}

	if len(f.nodes) > 0 {
		f.shutdown(fails)
		tr.CloseIdleConnections()
		f.checkLeaks(baseGoroutines, fails)
		if *restart {
			// The listing is the first daemon's last use: once f is
			// reassigned, the GC can reclaim its entire snapshot history.
			if f = restartFleet(f.nodes[0].srv.Store().List(), *dataDir, *workers, fails); f != nil {
				f.checkLeaks(baseGoroutines, fails)
			}
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

// node is one in-process daemon; tm is nil outside a cluster.
type node struct {
	srv *server.Server
	hs  *http.Server
	tm  *cluster.TailManager
	url string
}

// fleet is what the workload runs against: base is the URL the clients
// hit, nodes the in-process daemons behind it — none for a remote
// daemon, one serving base itself, or several behind coord.
type fleet struct {
	base  string
	nodes []*node
	coord *cluster.Coordinator
	chs   *http.Server // the coordinator's listener
}

// startFleet starts one in-process daemon per data directory ("" =
// volatile). More than one become the workers of a cluster: one hash
// ring, full replication, and a coordinator in front.
func startFleet(dirs []string, workers int) (*fleet, error) {
	f := &fleet{}
	lns := make([]net.Listener, len(dirs))
	var peers []string
	for i, dir := range dirs {
		opt := server.Options{
			Workers: workers, QueueCap: 64,
			DefaultTimeout: 5 * time.Second, MaxTimeout: 10 * time.Second,
			CancelWait: 5 * time.Second,
			AccessLog:  nil, // counted, not written — the soak measures, it does not archive
		}
		if dir != "" {
			// Interval sync keeps upload-heavy soak traffic off the fsync
			// critical path; a small checkpoint threshold makes background
			// compaction actually fire during the run.
			opt.DataDir, opt.WALSync, opt.CheckpointEvery, opt.RetainEpochs = dir, "interval", 256, 4
		}
		if len(dirs) > 1 {
			opt.MaxReplicaLag = -1 // no kills in this soak; never lag-gate the workload
		}
		srv, err := server.New(opt)
		if err != nil {
			return nil, err
		}
		if lns[i], err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
			return nil, err
		}
		f.nodes = append(f.nodes, &node{srv: srv, url: "http://" + lns[i].Addr().String()})
		peers = append(peers, f.nodes[i].url)
	}
	for i, nd := range f.nodes {
		if len(dirs) > 1 {
			tm, err := cluster.NewTailManager(nd.srv.Store(), cluster.Config{Self: nd.url, Peers: peers, Replication: len(dirs)})
			if err != nil {
				return nil, err
			}
			nd.tm = tm
			nd.srv.SetCluster(tm)
		}
		nd.hs = &http.Server{Handler: nd.srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
		go nd.hs.Serve(lns[i])
		if nd.tm != nil {
			nd.tm.Start()
		}
	}
	f.base = f.nodes[0].url
	if len(dirs) == 1 {
		fmt.Printf("mbbsoak: in-process daemon on %s\n", f.base)
		return f, nil
	}
	coord, err := cluster.NewCoordinator(cluster.CoordinatorConfig{
		Peers: peers, Replication: len(dirs), ProbeInterval: 100 * time.Millisecond,
	})
	if err != nil {
		return nil, err
	}
	coord.Start()
	cln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	f.coord = coord
	f.chs = &http.Server{Handler: server.Chain(coord.Handler(), server.RequestID), ReadHeaderTimeout: 10 * time.Second}
	go f.chs.Serve(cln)
	f.base = "http://" + cln.Addr().String()
	fmt.Printf("mbbsoak: %d-worker cluster behind coordinator %s\n", len(dirs), f.base)
	return f, nil
}

// idle reports whether no job is queued or running: directly off every
// in-process scheduler, via /stats against a remote daemon.
func (f *fleet) idle(httpc *http.Client) bool {
	if len(f.nodes) == 0 {
		body, status := get(httpc, f.base+"/stats")
		return status == http.StatusOK && strings.Contains(body, `"queued":0`) && strings.Contains(body, `"running":0`)
	}
	for _, nd := range f.nodes {
		if nd.srv.Scheduler().Live() != 0 {
			return false
		}
	}
	return true
}

// drainProbe begins a single daemon's drain exactly like SIGTERM and
// asserts its contract: a submit during the drain gets 503 +
// Retry-After. The probe graph must exist — the handler 404s unknown
// names before the scheduler can say ErrDraining.
func drainProbe(httpc *http.Client, nd *node, fails *failures) {
	var pbuf bytes.Buffer
	mbb.WriteGraph(&pbuf, mbb.GenerateDense(4, 4, 1.0, 1))
	req, _ := http.NewRequest(http.MethodPut, nd.url+"/graphs/drainprobe", &pbuf)
	if resp, err := httpc.Do(req); err != nil {
		fails.addf("upload drain probe: %v", err)
	} else {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			fails.addf("upload drain probe: status %d", resp.StatusCode)
		}
	}
	nd.srv.BeginDrain()
	resp, err := httpc.Post(nd.url+"/graphs/drainprobe/jobs", "application/json", strings.NewReader("{}"))
	if err != nil {
		fails.addf("submit during drain: %v", err)
		return
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		fails.addf("submit during drain returned %d, want 503", resp.StatusCode)
	} else if resp.Header.Get("Retry-After") == "" {
		fails.addf("drain 503 lacks Retry-After")
	}
}

// converge asserts that every worker reaches its shard owner's exact
// state (same epoch and shape, or the same absence) for every graph
// name.
func (f *fleet) converge(httpc *http.Client, graphs int, fails *failures) {
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
	ring := f.nodes[0].tm.Ring()
	for g := 0; g < graphs; g++ {
		name := fmt.Sprintf("soak%d", g)
		owner := ring.Owner(name)
		if !eventually(20*time.Second, func() bool {
			want := graphKey(owner, name)
			for _, nd := range f.nodes {
				if graphKey(nd.url, name) != want {
					return false
				}
			}
			return true
		}) {
			detail := ""
			for _, nd := range f.nodes {
				detail += fmt.Sprintf(" %s:[%s]", nd.url, graphKey(nd.url, name))
			}
			fails.addf("graph %s never converged to owner %s's state:%s", name, owner, detail)
		}
	}
}

// shutdown stops the fleet the way SIGTERM stops mbbserved: tails first
// (so /replicate handlers unblock), then the coordinator, then each
// daemon's drain, listener and server. A cluster prints its replication
// totals: a resync loop shows as resyncs piling up.
func (f *fleet) shutdown(fails *failures) {
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if f.coord != nil {
		var applied, resyncs int64
		for _, nd := range f.nodes {
			nd.tm.Close()
			st := nd.tm.Status()
			applied += st.Applied
			resyncs += st.Resyncs
		}
		fmt.Printf("mbbsoak: %d workers: %d records replicated, %d resyncs\n", len(f.nodes), applied, resyncs)
		f.coord.Close()
		if err := f.chs.Shutdown(ctx); err != nil {
			fails.addf("coordinator shutdown: %v", err)
		}
	}
	for _, nd := range f.nodes {
		nd.srv.BeginDrain()
		if err := nd.srv.WaitIdle(ctx); err != nil {
			fails.addf("drain of %s did not go idle: %v", nd.url, err)
		}
		if err := nd.hs.Shutdown(ctx); err != nil {
			fails.addf("http shutdown of %s: %v", nd.url, err)
		}
		nd.srv.Close()
	}
}

// checkLeaks is the soak's one set of leak gauges, for a fleet already
// shut down. Every job has released its pin, so the GC must get the live
// snapshots down to what the stores' retention windows hold; the
// goroutines must fall back to the baseline taken before any daemon
// started; and no handler may have panicked.
func (f *fleet) checkLeaks(baseGoroutines int, fails *failures) {
	var retained, panics int64
	for _, nd := range f.nodes {
		retained += nd.srv.Store().RetainedSnapshots()
		panics += nd.srv.Metrics().Panics()
	}
	if panics > 0 {
		fails.addf("%d handler panics during the soak", panics)
	}
	if !eventually(10*time.Second, func() bool {
		runtime.GC()
		return server.LiveSnapshots() <= retained
	}) {
		fails.addf("snapshot leak: %d live, want <= %d retained", server.LiveSnapshots(), retained)
	}
	if !eventually(10*time.Second, func() bool {
		runtime.GC()
		return runtime.NumGoroutine() <= baseGoroutines
	}) {
		fails.addf("goroutine leak: %d live, baseline %d", runtime.NumGoroutine(), baseGoroutines)
		pprof.Lookup("goroutine").WriteTo(os.Stderr, 1)
	}
}

// restartFleet is the -restart phase: a second server recovers the WAL
// directory the drained daemon wrote, and must reconstruct exactly the
// graphs it was serving — same names, epochs and sizes. It returns the
// recovered server, closed, as a fleet of one for the leak gauges, or
// nil when it could not open.
func restartFleet(want []server.GraphInfo, dataDir string, workers int, fails *failures) *fleet {
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
		return nil
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
	return &fleet{nodes: []*node{{srv: srv}}}
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
