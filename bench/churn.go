package main

// The churn workload drives a durable worker through the cluster
// coordinator: one connection streams edge batches at a fixed rate while
// the other solves at a fixed rate, so deltas land beside reads on one
// store and plan cache. Then it times a fresh replica catching up from
// the worker's WAL, and the worker recovering from its data directory.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/server"
	"repro/internal/workload"
	"repro/mbb"
)

const (
	churnSide = 1000  // vertices per side of the churned graph
	churnRate = 100.0 // edge batches per second
	// churnSolveRate is the fixed rate of the solves beside the stream.
	// Solving back to back saturated both processors, and solve and
	// mutation latency then swung by 20% from run to run on the
	// reference machine: the scheduler set them, not the store.
	churnSolveRate = 200.0
	churnShare     = 0.3 // share of stream events that delete an edge
	// churnPlant is the side of the biclique planted in the base graph,
	// as the Table 5 stand-ins plant their optimum. Without it the
	// optimum is 3 and every solve searches one large component for
	// 13–45 ms, depending on seed and epoch: too slow for a thousand
	// solves a run, and too seed-dependent for a bound.
	churnPlant = 12
	// checkEvery is how often a solve's answer is verified against the
	// library on the benchmark's own copy of the graph at that epoch.
	checkEvery = 20
	// restarts is how many fresh replicas catch up, and how many times
	// the worker recovers; the metrics are the medians.
	restarts = 3
	// churnWindows is how many windows of time the latency metrics are
	// medians over. Pooled over the whole stream, the solve mean and p90
	// spread by 12% and 22% across seeds on the reference machine; as
	// medians over eight windows, by 8% and 15%.
	churnWindows = 8
)

// churnStream returns the base graph and the first n edge batches of
// the seeded replay trace: power-law insertions with 30% deletions, in
// 120 ms windows of a 20 ms mean event gap (about four edges a batch).
// The base carries a planted biclique; events on its edges are dropped,
// so every remaining event still changes the graph.
func churnStream(seed int64, side, n int) (*mbb.Graph, []mbb.Delta, error) {
	st := workload.Replay(side, side, 5*side, 8*n, churnShare, 20, seed)
	base, lefts, rights := workload.Plant(st.Base, churnPlant, seed+1)
	planted := make(map[[2]int]bool)
	for _, l := range lefts {
		for _, r := range rights {
			planted[[2]int{l, r}] = true
		}
	}
	kept := workload.EdgeStream{Base: base}
	for _, ev := range st.Events {
		if !planted[[2]int{ev.L, ev.R}] {
			kept.Events = append(kept.Events, ev)
		}
	}
	batches := kept.Batches(120)
	if len(batches) < n {
		return nil, nil, fmt.Errorf("replay trace has %d batches, want %d", len(batches), n)
	}
	return base, batches[:n], nil
}

// ownedName returns a graph name the ring [a, b] places on a.
func ownedName(a, b string) (string, error) {
	ring, err := cluster.NewRing([]string{a, b}, 0)
	if err != nil {
		return "", err
	}
	for i := 0; ; i++ {
		if name := fmt.Sprintf("churn-%d", i); ring.Owner(name) == a {
			return name, nil
		}
	}
}

// idleURL returns a loopback URL nothing listens on: the ring slot of
// the replica that starts only after the load phase.
func idleURL() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	url := "http://" + ln.Addr().String()
	return url, ln.Close()
}

// waitFor polls cond until it holds or limit passes.
func waitFor(limit time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(limit)
	for !cond() {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(200 * time.Microsecond)
	}
	return true
}

// fleet is the churn workload's system: durable worker A behind a
// coordinator whose ring also names the not-yet-started replica B.
type fleet struct {
	a          *daemon
	coord      *cluster.Coordinator
	front      *httpServer
	mut, sol   *client // one connection each
	dataDir    string
	aURL, bURL string
	name       string
}

func (f *fleet) close() {
	f.mut.close()
	f.sol.close()
	f.front.close()
	f.coord.Close()
	f.a.close()
}

func startFleet(r *run, base *mbb.Graph) (*fleet, error) {
	f := &fleet{}
	var err error
	if f.dataDir, err = os.MkdirTemp(r.dir, "worker-"); err != nil {
		return nil, err
	}
	if f.a, err = startDaemon(server.Options{Workers: 2, DataDir: f.dataDir, WALSync: "interval"}, r.tr != nil); err != nil {
		return nil, err
	}
	f.aURL = f.a.http.url
	if f.bURL, err = idleURL(); err == nil {
		f.name, err = ownedName(f.aURL, f.bURL)
	}
	if err == nil {
		f.coord, err = cluster.NewCoordinator(cluster.CoordinatorConfig{
			Peers: []string{f.aURL, f.bURL}, Replication: 2, ProbeInterval: 50 * time.Millisecond,
		})
	}
	if err != nil {
		f.a.close()
		return nil, err
	}
	f.coord.Start()
	if f.front, err = serveHTTP(server.Chain(f.coord.Handler(), server.RequestID)); err != nil {
		f.coord.Close()
		f.a.close()
		return nil, err
	}
	f.mut, f.sol = newClient(f.front.url, "m", 1), newClient(f.front.url, "q", 1)
	ready := waitFor(10*time.Second, func() bool {
		_, err := f.sol.do("GET", "/readyz", nil)
		return err == nil
	})
	var body bytes.Buffer
	if err = mbb.WriteGraph(&body, base); err == nil && !ready {
		err = fmt.Errorf("coordinator saw no ready worker")
	}
	if err == nil {
		_, err = f.mut.do("PUT", "/graphs/"+f.name, body.Bytes())
	}
	if err == nil {
		_, err = f.sol.do("POST", "/graphs/"+f.name+"/solve", nil) // builds the epoch-0 plan
	}
	if err != nil {
		f.close()
		return nil, err
	}
	return f, nil
}

// checkedSolve is a solve answer kept for verification after the run.
type checkedSolve struct {
	epoch uint64
	size  int
	a, b  []int
}

func runChurn(r *run) error {
	side := churnSide
	if r.short {
		side = 200
	}
	phase := r.budget * 8 / 10
	n := int(churnRate * phase.Seconds())
	var base *mbb.Graph
	var batches []mbb.Delta
	var f *fleet
	teardown, err := r.setUp(func() (func(), error) {
		var err error
		if base, batches, err = churnStream(r.seed, side, n); err != nil {
			return nil, err
		}
		ff, err := startFleet(r, base)
		if err != nil {
			return nil, err
		}
		f = ff
		return ff.close, nil
	})
	if err != nil {
		return err
	}
	defer teardown()
	store := f.a.srv.Store()
	wal0 := store.WAL().Stats()

	var (
		span      = time.Duration(float64(len(batches)) / churnRate * float64(time.Second))
		start     time.Time     // when the stream's first batch is due
		published atomic.Uint64 // newest epoch a mutation response acknowledged
		jmu       sync.Mutex
		joins     []joinReq
		// Written by the mutation stream's goroutine only.
		mutLat, applyMs []float64
		mutWin          []int // window of each mutLat entry
		outcomes        = map[string]int{}
		// Written by the solves, under smu.
		smu                  sync.Mutex
		solveLat             []float64
		solveWin             []int
		queueMs, runMs       []float64
		checks               []checkedSolve
		cold                 int
		nodes, peeled, comps float64
		gap                  float64
	)
	join := func(q joinReq) {
		jmu.Lock()
		joins = append(joins, q)
		jmu.Unlock()
	}
	windowOf := func(due time.Time) int {
		return min(int(churnWindows*due.Sub(start)/span), churnWindows-1)
	}
	mutate := func(i int, due time.Time) {
		d := batches[i]
		body, _ := json.Marshal(server.MutateRequest{Add: d.Add, Del: d.Del})
		op := r.tr.op()
		cl, err := f.mut.do("POST", "/graphs/"+f.name+"/edges", body)
		r.attempts.Add(1)
		var mi server.MutationInfo
		if err == nil {
			err = json.Unmarshal(cl.body, &mi)
		}
		if err != nil {
			r.fail("mutation %d: %v", i, err)
			return
		}
		if mi.Epoch != uint64(i+1) || mi.Added != len(d.Add) || mi.Removed != len(d.Del) {
			r.fail("mutation %d: epoch %d with %d+/%d-, want epoch %d with %d+/%d-",
				i, mi.Epoch, mi.Added, mi.Removed, i+1, len(d.Add), len(d.Del))
			return
		}
		published.Store(mi.Epoch)
		mutLat, mutWin = append(mutLat, ms(cl.end.Sub(due))), append(mutWin, windowOf(due))
		outcomes[mi.Plan]++
		if sg, ok := store.Get(f.name); ok {
			if gi := sg.Info(); gi.Epoch == mi.Epoch && (gi.PlanSource == "repaired" || gi.PlanSource == "inherited") {
				applyMs = append(applyMs, gi.PlanMillis)
			}
		}
		if root := r.tr.add("client.mutate", op, 0, cl.sent, cl.end); root != 0 {
			join(joinReq{kind: "mutate", op: op, root: root, id: cl.id})
		}
	}
	solve := func(i int, due time.Time) {
		lo := published.Load()
		op := r.tr.op()
		cl, err := f.sol.do("POST", "/graphs/"+f.name+"/solve", nil)
		r.attempts.Add(1)
		var info server.JobInfo
		if err == nil {
			info, err = solveJob(cl.body)
		}
		var queued, started, finished time.Time
		if err == nil {
			queued, started, finished, err = jobTimes(info)
		}
		if err != nil {
			r.fail("solve: %v", err)
			return
		}
		// At most one mutation is in flight, so the solve saw the epoch
		// acknowledged before it was sent, or at most one past the
		// newest acknowledged when it returned.
		res := info.Result
		if hi := published.Load() + 1; res.Epoch < lo || res.Epoch > hi {
			r.fail("solve answered epoch %d, acknowledged epochs were %d..%d", res.Epoch, lo, hi)
			return
		}
		smu.Lock()
		defer smu.Unlock()
		solveLat, solveWin = append(solveLat, ms(cl.end.Sub(due))), append(solveWin, windowOf(due))
		queueMs = append(queueMs, ms(started.Sub(queued)))
		runMs = append(runMs, ms(finished.Sub(started)))
		if !res.PlanCached {
			cold++
		}
		nodes += float64(res.Stats.Nodes)
		peeled += float64(res.Stats.Peeled) / float64(2*side)
		comps += float64(res.Stats.Components)
		gap += float64(res.Size - res.Stats.Tau)
		if i%checkEvery == 0 {
			checks = append(checks, checkedSolve{epoch: res.Epoch, size: res.Size, a: res.A, b: res.B})
		}
		if root := r.tr.add("client.solve", op, 0, cl.sent, cl.end); root != 0 {
			join(joinReq{kind: "solve", op: op, root: root, id: cl.id, job: &info})
		}
	}
	start = time.Now()
	streamed := make(chan []float64)
	go func() { streamed <- paced(start, churnRate, len(batches), mutate) }()
	openLoop(start, churnSolveRate, span, solve)
	late := <-streamed
	wal1 := store.WAL().Stats()
	failovers, rejects, err := coordCounters(f.sol)
	r.check(err == nil, "coordinator metrics: %v", err)

	final, err := verifyChurn(r, base, batches, checks)
	if err != nil {
		return err
	}
	if sg, ok := store.Get(f.name); r.check(ok && sg.Epoch() == uint64(len(batches)), "worker A did not publish every batch") {
		err := sameEdges(sg.Graph(), final)
		r.check(err == nil, "worker A's graph differs from the benchmark's copy: %v", err)
	}
	catchup, applied := catchUp(r, f, final, uint64(len(batches)))
	f.front.close()
	f.coord.Close()
	f.a.close() // flushes the access log and the WAL
	recovery, records := recoverWorker(r, f, final, uint64(len(batches)))

	muts, solves := float64(len(mutLat)), float64(len(solveLat))
	// The windowed metrics come first: median and percentile sort their
	// argument in place, which would unpair latencies from windows.
	r.set("solve_p50_ms", overWindows(solveLat, solveWin, median))
	r.set("solve_mean_ms", overWindows(solveLat, solveWin, mean))
	// The p99 of these sub-millisecond solves is scheduler and collector
	// jitter; it swung by 40% between identical runs, the p90 by 5%.
	r.set("solve_tail_ms", overWindows(solveLat, solveWin, func(xs []float64) float64 {
		return percentile(xs, tailPercentile(len(xs), 90))
	}))
	r.set("update_p50_ms", overWindows(mutLat, mutWin, median))
	r.set("churn.mutate_p99_ms", percentile(mutLat, tailPercentile(len(mutLat), 99)))
	r.set("churn.catchup_s", catchup)
	r.set("churn.recover_s", recovery)
	r.set("gen.late_p99_ms", percentile(late, 99))
	for _, o := range []string{"reused", "repaired", "rebuilding", "none"} {
		r.set("mbb.plan."+o, float64(outcomes[o]))
	}
	r.set("mbb.rebuild_frac", float64(outcomes["rebuilding"])/muts)
	r.set("mbb.apply_delta_ms", mean(applyMs))
	r.set("mbb.cold_solves", float64(cold))
	r.set("server.queue_wait_p50_ms", median(queueMs))
	r.set("server.queue_wait_p99_ms", percentile(queueMs, 99))
	r.set("server.job_run_p50_ms", median(runMs))
	r.set("server.job_run_p99_ms", percentile(runMs, 99))
	r.set("core.nodes", nodes/solves)
	r.set("mbb.peeled_frac", peeled/solves)
	r.set("mbb.components", comps/solves)
	r.set("mbb.tau_gap", gap/solves)
	r.set("wal.appends", float64(wal1.Appends-wal0.Appends))
	r.set("wal.fsyncs", float64(wal1.Fsyncs-wal0.Fsyncs))
	if fs := wal1.Fsyncs - wal0.Fsyncs; fs > 0 {
		r.set("wal.fsync_mean_ms", float64(wal1.FsyncNanos-wal0.FsyncNanos)/float64(fs)/1e6)
	}
	r.set("wal.bytes_per_mutation", float64(wal1.AppendBytes-wal0.AppendBytes)/muts)
	r.set("wal.replay_us_per_record", recovery*1e6/float64(max(records, 1)))
	r.set("cluster.apply_us_per_record", catchup*1e6/float64(max(applied, 1)))
	r.set("cluster.failovers", float64(failovers))
	r.set("cluster.rejects", float64(rejects))
	fmt.Fprintf(r.log, "churn: %d mutations, %d solves, %d checked\n", len(mutLat), len(solveLat), len(checks))

	if r.tr == nil {
		return nil
	}
	if err := joinAccessLog(r.tr, f.a.accessLog.bytes(), joins); err != nil {
		return err
	}
	st := r.tr.stats()
	roots := st["client.solve"].self + st["client.mutate"].self
	r.set("cluster.coord_self_ms", ms(roots)/float64(max(st["client.solve"].n+st["client.mutate"].n, 1)))
	r.set("server.handler_self_ms", st["server.solve"].meanSelfMs())
	r.set("server.mutate_handler_ms", ms(st["server.mutate"].total)/float64(max(st["server.mutate"].n, 1)))
	return nil
}

// verifyChurn replays the batches on the benchmark's own copy of the
// graph, checks every kept solve against a library solve of the copy at
// that epoch, checks the seed-1 sizes against golden.json, and returns
// the final copy.
func verifyChurn(r *run, base *mbb.Graph, batches []mbb.Delta, checks []checkedSolve) (*mbb.Graph, error) {
	sort.Slice(checks, func(i, j int) bool { return checks[i].epoch < checks[j].epoch })
	g := base
	for epoch, next := uint64(0), 0; ; epoch++ {
		for ; next < len(checks) && checks[next].epoch == epoch; next++ {
			c := checks[next]
			res, err := mbb.Solve(g, nil)
			r.check(err == nil && res.Biclique.Size() == c.size && validLocal(g, c.a, c.b, c.size),
				"solve at epoch %d answered %d, the library finds %d", epoch, c.size, res.Biclique.Size())
		}
		if epoch == uint64(len(batches)) {
			break
		}
		var err error
		if g, _, err = g.Apply(batches[epoch]); err != nil {
			return nil, fmt.Errorf("replay batch %d: %w", epoch, err)
		}
	}
	if r.useGolden() {
		gold, err := loadGolden()
		if err != nil {
			return nil, err
		}
		type sizeCheck struct {
			g    *mbb.Graph
			want int
		}
		sizes := []sizeCheck{{base, gold.Churn.Base}}
		if len(batches) == gold.Churn.Batches {
			sizes = append(sizes, sizeCheck{g, gold.Churn.Final})
		}
		for _, c := range sizes {
			res, err := mbb.Solve(c.g, nil)
			r.check(err == nil && res.Biclique.Size() == c.want, "churn optimum %d differs from golden.json %d", res.Biclique.Size(), c.want)
		}
	}
	return g, nil
}

// catchUp starts a fresh replica in B's ring slot, restarts times, each
// tailing worker A's WAL from position zero, and returns the median time
// until a replica holds A's final epoch, and the records one applied.
func catchUp(r *run, f *fleet, final *mbb.Graph, epoch uint64) (secs float64, applied int64) {
	var times []float64
	for i := 0; i < restarts; i++ {
		start := time.Now()
		b, err := server.New(server.Options{Workers: 2})
		if !r.check(err == nil, "replica: %v", err) {
			continue
		}
		tm, err := cluster.NewTailManager(b.Store(), cluster.Config{Self: f.bURL, Peers: []string{f.aURL, f.bURL}, Replication: 2})
		if !r.check(err == nil, "tail manager: %v", err) {
			b.Close()
			continue
		}
		tm.Start()
		caught := waitFor(30*time.Second, func() bool {
			sg, ok := b.Store().Get(f.name)
			return ok && sg.Epoch() == epoch
		})
		elapsed := time.Since(start)
		applied = tm.Status().Applied
		tm.Close()
		if r.check(caught, "replica did not reach epoch %d", epoch) {
			sg, _ := b.Store().Get(f.name)
			err := sameEdges(sg.Graph(), final)
			r.check(err == nil, "replica state differs from worker A: %v", err)
			times = append(times, elapsed.Seconds())
		}
		b.Close()
	}
	return median(times), applied
}

// recoverWorker starts worker A from its data directory, restarts times,
// and returns the median recovery time and the records replayed.
func recoverWorker(r *run, f *fleet, final *mbb.Graph, epoch uint64) (secs float64, records int) {
	var times []float64
	for i := 0; i < restarts; i++ {
		start := time.Now()
		s, err := server.New(server.Options{Workers: 2, DataDir: f.dataDir, WALSync: "interval"})
		elapsed := time.Since(start)
		if !r.check(err == nil, "recover worker A: %v", err) {
			continue
		}
		records = s.RecoveredStats().Records
		sg, ok := s.Store().Get(f.name)
		if r.check(ok && sg.Epoch() == epoch, "recovered worker lost epoch %d", epoch) {
			err := sameEdges(sg.Graph(), final)
			r.check(err == nil, "recovered state differs from worker A: %v", err)
			times = append(times, elapsed.Seconds())
		}
		s.Close()
	}
	return median(times), records
}

// coordCounters scrapes the coordinator's failover and reject counters.
func coordCounters(c *client) (failovers, rejects int64, err error) {
	cl, err := c.do(http.MethodGet, "/metrics", nil)
	if err != nil {
		return 0, 0, err
	}
	sc := bufio.NewScanner(bytes.NewReader(cl.body))
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok || strings.HasPrefix(name, "#") {
			continue
		}
		v, err := strconv.ParseInt(val, 10, 64)
		if err != nil {
			continue
		}
		switch name {
		case "mbbcoord_failovers_total":
			failovers = v
		case "mbbcoord_busy_rejects_total", "mbbcoord_down_rejects_total":
			rejects += v
		}
	}
	return failovers, rejects, sc.Err()
}
