package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/server"
)

// solveBufferBytes bounds how much of a solve/submit request body the
// coordinator buffers for failover; it matches the workers' own solve
// body limit, so anything larger would be rejected downstream anyway.
const solveBufferBytes = 1 << 20

// jobRouteCap bounds the learned job-id → worker map; older routes are
// evicted FIFO and fall back to the fan-out lookup.
const jobRouteCap = 4096

// CoordinatorConfig configures the routing front-end.
type CoordinatorConfig struct {
	// Peers is the worker URL list — the same ring every worker runs.
	Peers []string
	// Vnodes and Replication must match the workers' settings.
	Vnodes      int
	Replication int
	// ProbeInterval is the /readyz poll period. Default 1s.
	ProbeInterval time.Duration
	// Client performs probes and forwards. Default: no overall timeout
	// (sync solves legitimately run long); probes get their own bound.
	Client *http.Client
}

// Coordinator fronts a worker ring: it routes mutations to shard
// owners, fans solves across ready replicas with failover, and turns
// per-shard queue depth and replication lag into 429/503 + Retry-After
// admission decisions. It holds no graph state — every durable byte
// lives on a worker's WAL — so a coordinator restart loses nothing but
// its learned job routes, which the fan-out lookup rebuilds on demand.
type Coordinator struct {
	cfg    CoordinatorConfig
	ring   *Ring
	client *http.Client

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	workers map[string]*workerState

	routeMu  sync.Mutex
	routes   map[string]string // job id → worker URL
	routeLog []string          // FIFO eviction order

	forwards   atomic.Int64
	failovers  atomic.Int64
	busyReject atomic.Int64 // 429: every candidate's queue is full
	downReject atomic.Int64 // 503: no ready candidate at all
	probeFails atomic.Int64
}

// workerState is the probe loop's view of one worker.
type workerState struct {
	url string

	mu    sync.Mutex
	ready bool
	st    server.ReadyStatus
	err   error
}

func (ws *workerState) snapshot() (bool, server.ReadyStatus, error) {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	return ws.ready, ws.st, ws.err
}

// NewCoordinator builds the coordinator; Start begins health probing.
func NewCoordinator(cfg CoordinatorConfig) (*Coordinator, error) {
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = time.Second
	}
	if cfg.Replication <= 0 {
		cfg.Replication = 2
	}
	if cfg.Client == nil {
		cfg.Client = &http.Client{}
	}
	ring, err := NewRing(cfg.Peers, cfg.Vnodes)
	if err != nil {
		return nil, err
	}
	if cfg.Replication > len(ring.Nodes()) {
		cfg.Replication = len(ring.Nodes())
	}
	ctx, cancel := context.WithCancel(context.Background())
	c := &Coordinator{
		cfg:     cfg,
		ring:    ring,
		client:  cfg.Client,
		ctx:     ctx,
		cancel:  cancel,
		workers: make(map[string]*workerState),
		routes:  make(map[string]string),
	}
	for _, p := range ring.Nodes() {
		c.workers[p] = &workerState{url: p}
	}
	return c, nil
}

// Start launches the per-worker readiness probes (one immediate probe
// each, then every ProbeInterval).
func (c *Coordinator) Start() {
	for _, ws := range c.workers {
		c.wg.Add(1)
		go c.probeLoop(ws)
	}
}

// Close stops the probes and waits for them.
func (c *Coordinator) Close() {
	c.cancel()
	c.wg.Wait()
}

func (c *Coordinator) probeLoop(ws *workerState) {
	defer c.wg.Done()
	t := time.NewTicker(c.cfg.ProbeInterval)
	defer t.Stop()
	for {
		c.probe(ws)
		select {
		case <-c.ctx.Done():
			return
		case <-t.C:
		}
	}
}

// probe polls one worker's /readyz. A 503 with a decodable body is a
// live-but-not-ready worker (draining, catching up) and keeps its queue
// numbers; a transport error or garbage marks it down.
func (c *Coordinator) probe(ws *workerState) {
	ctx, cancel := context.WithTimeout(c.ctx, 2*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ws.url+"/readyz", nil)
	if err != nil {
		return
	}
	resp, err := c.client.Do(req)
	if err != nil {
		c.probeFails.Add(1)
		ws.mu.Lock()
		ws.ready, ws.err = false, err
		ws.mu.Unlock()
		return
	}
	defer resp.Body.Close()
	var st server.ReadyStatus
	decErr := json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&st)
	ws.mu.Lock()
	defer ws.mu.Unlock()
	if decErr != nil {
		c.probeFails.Add(1)
		ws.ready, ws.err = false, fmt.Errorf("decode /readyz: %w", decErr)
		return
	}
	ws.st, ws.err = st, nil
	ws.ready = resp.StatusCode == http.StatusOK && st.Ready
}

// Handler returns the coordinator's HTTP API. It mirrors the worker
// API — clients point at the coordinator instead of a worker and keep
// their request shapes — plus GET /cluster for topology and routing
// introspection.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("GET /readyz", c.handleReadyz)
	mux.HandleFunc("GET /metrics", c.handleMetrics)
	mux.HandleFunc("GET /cluster", c.handleCluster)
	mux.HandleFunc("GET /stats", c.handleStats)
	mux.HandleFunc("GET /graphs", c.handleGraphs)
	mux.HandleFunc("PUT /graphs/{name}", c.ownerForward)
	mux.HandleFunc("GET /graphs/{name}", c.readForward)
	mux.HandleFunc("DELETE /graphs/{name}", c.ownerForward)
	mux.HandleFunc("GET /graphs/{name}/export", c.readForward)
	mux.HandleFunc("POST /graphs/{name}/edges", c.ownerForward)
	mux.HandleFunc("DELETE /graphs/{name}/edges", c.ownerForward)
	mux.HandleFunc("POST /graphs/{name}/jobs", c.solveForward)
	mux.HandleFunc("POST /graphs/{name}/solve", c.solveForward)
	mux.HandleFunc("GET /jobs", c.handleJobs)
	mux.HandleFunc("GET /jobs/{id}", c.jobForward)
	mux.HandleFunc("DELETE /jobs/{id}", c.jobForward)
	return mux
}

// handleReadyz: the coordinator is ready when any worker is — it can
// still serve reads for live shards even with part of the ring down.
func (c *Coordinator) handleReadyz(w http.ResponseWriter, r *http.Request) {
	ready := 0
	for _, ws := range c.workers {
		if ok, _, _ := ws.snapshot(); ok {
			ready++
		}
	}
	st := map[string]any{"ready": ready > 0, "workers_ready": ready, "workers_total": len(c.workers)}
	if ready == 0 {
		w.Header().Set("Retry-After", "5")
		writeJSON(w, http.StatusServiceUnavailable, st)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (c *Coordinator) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	var b bytes.Buffer
	counter := func(name, help string, v int64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	counter("mbbcoord_forwards_total", "Requests forwarded to workers.", c.forwards.Load())
	counter("mbbcoord_failovers_total", "Solve forwards that moved past a failed candidate.", c.failovers.Load())
	counter("mbbcoord_busy_rejects_total", "Requests rejected 429 with every candidate queue full.", c.busyReject.Load())
	counter("mbbcoord_down_rejects_total", "Requests rejected 503 with no ready candidate.", c.downReject.Load())
	counter("mbbcoord_probe_failures_total", "Readiness probes that failed outright.", c.probeFails.Load())
	ready := 0
	for _, ws := range c.workers {
		if ok, _, _ := ws.snapshot(); ok {
			ready++
		}
	}
	fmt.Fprintf(&b, "# HELP mbbcoord_workers_ready Workers currently passing readiness probes.\n# TYPE mbbcoord_workers_ready gauge\nmbbcoord_workers_ready %d\n", ready)
	fmt.Fprintf(&b, "# HELP mbbcoord_workers_total Workers on the ring.\n# TYPE mbbcoord_workers_total gauge\nmbbcoord_workers_total %d\n", len(c.workers))
	w.Write(b.Bytes())
}

// ClusterTopology is the GET /cluster payload.
type ClusterTopology struct {
	Workers     []WorkerInfo `json:"workers"`
	Vnodes      int          `json:"vnodes"`
	Replication int          `json:"replication"`
}

// WorkerInfo is one worker's probed state in the topology payload.
type WorkerInfo struct {
	URL        string  `json:"url"`
	Ready      bool    `json:"ready"`
	Draining   bool    `json:"draining"`
	QueueDepth int     `json:"queue_depth"`
	QueueCap   int     `json:"queue_capacity"`
	Synced     bool    `json:"synced"`
	LagSeconds float64 `json:"lag_seconds"`
	Error      string  `json:"error,omitempty"`
}

// GraphPlacement is the GET /cluster?name=G payload.
type GraphPlacement struct {
	Name     string   `json:"name"`
	Owner    string   `json:"owner"`
	Replicas []string `json:"replicas"`
}

func (c *Coordinator) handleCluster(w http.ResponseWriter, r *http.Request) {
	if name := r.URL.Query().Get("name"); name != "" {
		writeJSON(w, http.StatusOK, GraphPlacement{
			Name:     name,
			Owner:    c.ring.Owner(name),
			Replicas: c.ring.Replicas(name, c.cfg.Replication),
		})
		return
	}
	top := ClusterTopology{Vnodes: c.cfg.Vnodes, Replication: c.cfg.Replication}
	if top.Vnodes <= 0 {
		top.Vnodes = DefaultVnodes
	}
	for _, u := range c.ring.Nodes() {
		ready, st, err := c.workers[u].snapshot()
		wi := WorkerInfo{URL: u, Ready: ready, Draining: st.Draining,
			QueueDepth: st.QueueDepth, QueueCap: st.QueueCapacity,
			Synced: st.Synced, LagSeconds: st.LagSeconds}
		if err != nil {
			wi.Error = err.Error()
		}
		top.Workers = append(top.Workers, wi)
	}
	writeJSON(w, http.StatusOK, top)
}

// forward proxies r to worker, rewriting only the host. It streams the
// response back with the worker named in X-Mbb-Worker. body replaces
// r.Body when non-nil (the buffered failover path).
func (c *Coordinator) forward(w http.ResponseWriter, r *http.Request, worker string, body []byte) (int, bool) {
	url := worker + r.URL.Path
	if r.URL.RawQuery != "" {
		url += "?" + r.URL.RawQuery
	}
	var rd io.Reader = r.Body
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(r.Context(), r.Method, url, rd)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "build forward request: %v", err)
		return 0, false
	}
	if ct := r.Header.Get("Content-Type"); ct != "" {
		req.Header.Set("Content-Type", ct)
	}
	if id := server.RequestIDFromContext(r.Context()); id != "" {
		req.Header.Set("X-Request-Id", id)
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return 0, false
	}
	defer resp.Body.Close()
	c.forwards.Add(1)
	h := w.Header()
	for _, k := range []string{"Content-Type", "Retry-After", "X-Graph-Epoch", "X-Mbb-Owner"} {
		if v := resp.Header.Get(k); v != "" {
			h.Set(k, v)
		}
	}
	h.Set("X-Mbb-Worker", worker)
	w.WriteHeader(resp.StatusCode)
	if resp.StatusCode == http.StatusAccepted || r.URL.Path == "/jobs" || strings.HasPrefix(r.URL.Path, "/jobs/") {
		// Job-shaped responses are small; tee them to learn id → worker.
		var buf bytes.Buffer
		io.Copy(&buf, io.LimitReader(resp.Body, 1<<20))
		c.learnRoute(buf.Bytes(), worker)
		w.Write(buf.Bytes())
	} else {
		io.Copy(w, resp.Body)
	}
	return resp.StatusCode, true
}

func (c *Coordinator) learnRoute(body []byte, worker string) {
	var probe struct {
		ID string `json:"id"`
	}
	if json.Unmarshal(body, &probe) != nil || probe.ID == "" {
		return
	}
	c.routeMu.Lock()
	defer c.routeMu.Unlock()
	if _, known := c.routes[probe.ID]; !known {
		c.routeLog = append(c.routeLog, probe.ID)
		for len(c.routeLog) > jobRouteCap {
			delete(c.routes, c.routeLog[0])
			c.routeLog = c.routeLog[1:]
		}
	}
	c.routes[probe.ID] = worker
}

// ownerForward routes mutations (upload, delete, edges) to the shard
// owner — the only worker whose WAL may accept them. Not-ready owners
// are refused up front with the same Retry-After the worker's drain
// path uses; there is no failover for writes.
func (c *Coordinator) ownerForward(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	owner := c.ring.Owner(name)
	if ok, _, _ := c.workers[owner].snapshot(); !ok {
		c.downReject.Add(1)
		w.Header().Set("Retry-After", "5")
		writeError(w, http.StatusServiceUnavailable, "shard owner %s of graph %q is not ready", owner, name)
		return
	}
	if _, ok := c.forward(w, r, owner, nil); !ok {
		w.Header().Set("Retry-After", "5")
		writeError(w, http.StatusServiceUnavailable, "shard owner %s of graph %q is unreachable", owner, name)
	}
}

// readCandidates is the named graph's replica preference list filtered
// to probed-ready workers and ordered by queue depth (owner's position
// breaks ties, keeping owner-affinity when queues are level).
func (c *Coordinator) readCandidates(name string) []string {
	prefs := c.ring.Replicas(name, c.cfg.Replication)
	type cand struct {
		url   string
		depth int
		pref  int
	}
	var cands []cand
	for i, u := range prefs {
		if ok, st, _ := c.workers[u].snapshot(); ok {
			cands = append(cands, cand{u, st.QueueDepth, i})
		}
	}
	sort.Slice(cands, func(a, b int) bool {
		if cands[a].depth != cands[b].depth {
			return cands[a].depth < cands[b].depth
		}
		return cands[a].pref < cands[b].pref
	})
	out := make([]string, len(cands))
	for i, cd := range cands {
		out[i] = cd.url
	}
	return out
}

// readForward sends a read (graph info, export) to the least-loaded
// ready replica, failing over through the rest of the preference list.
func (c *Coordinator) readForward(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	cands := c.readCandidates(name)
	if len(cands) == 0 {
		c.downReject.Add(1)
		w.Header().Set("Retry-After", "5")
		writeError(w, http.StatusServiceUnavailable, "no ready replica of graph %q", name)
		return
	}
	for i, u := range cands {
		if i > 0 {
			c.failovers.Add(1)
		}
		if _, ok := c.forward(w, r, u, nil); ok {
			return
		}
		// Transport error before any bytes reached the client — the
		// next candidate gets a clean response writer.
	}
	w.Header().Set("Retry-After", "5")
	writeError(w, http.StatusServiceUnavailable, "every replica of graph %q is unreachable", name)
}

// solveForward routes a solve/submit across the ready replicas,
// buffering the (bounded) request body so a failed candidate can be
// retried on the next one. Failover triggers on transport errors and on
// 503/421 — a queue-full or lag-gated replica is exactly when another
// replica should answer. All-queues-full becomes 429 (the cluster is
// saturated: backing off is the fix), no-ready-candidate becomes 503.
func (c *Coordinator) solveForward(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	body, err := io.ReadAll(io.LimitReader(r.Body, solveBufferBytes+1))
	if err != nil {
		writeError(w, http.StatusBadRequest, "read request body: %v", err)
		return
	}
	if len(body) > solveBufferBytes {
		writeError(w, http.StatusRequestEntityTooLarge, "solve request exceeds %d bytes", solveBufferBytes)
		return
	}
	cands := c.readCandidates(name)
	if len(cands) == 0 {
		c.downReject.Add(1)
		w.Header().Set("Retry-After", "5")
		writeError(w, http.StatusServiceUnavailable, "no ready replica of graph %q", name)
		return
	}
	tried, refused := 0, 0
	for i, u := range cands {
		if i > 0 {
			c.failovers.Add(1)
		}
		status, sent := c.tryCandidate(w, r, u, body)
		if sent && status != http.StatusServiceUnavailable && status != http.StatusMisdirectedRequest {
			return
		}
		tried++
		if sent {
			refused++
		}
	}
	if refused == tried && tried > 0 {
		// Every candidate answered and said "not now" — saturation.
		c.busyReject.Add(1)
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, "all %d replicas of graph %q are at capacity or lag-bounded", tried, name)
		return
	}
	c.downReject.Add(1)
	w.Header().Set("Retry-After", "5")
	writeError(w, http.StatusServiceUnavailable, "no replica of graph %q could take the solve", name)
}

// tryCandidate attempts one solve forward. Unlike forward, a 503/421
// answer is NOT relayed — the caller will fail over — so the response
// is only committed once the status is final.
func (c *Coordinator) tryCandidate(w http.ResponseWriter, r *http.Request, worker string, body []byte) (int, bool) {
	url := worker + r.URL.Path
	if r.URL.RawQuery != "" {
		url += "?" + r.URL.RawQuery
	}
	req, err := http.NewRequestWithContext(r.Context(), r.Method, url, bytes.NewReader(body))
	if err != nil {
		return 0, false
	}
	if ct := r.Header.Get("Content-Type"); ct != "" {
		req.Header.Set("Content-Type", ct)
	}
	if id := server.RequestIDFromContext(r.Context()); id != "" {
		req.Header.Set("X-Request-Id", id)
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return 0, false
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusServiceUnavailable || resp.StatusCode == http.StatusMisdirectedRequest {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
		return resp.StatusCode, true
	}
	c.forwards.Add(1)
	var buf bytes.Buffer
	io.Copy(&buf, io.LimitReader(resp.Body, 64<<20))
	c.learnRoute(buf.Bytes(), worker)
	h := w.Header()
	for _, k := range []string{"Content-Type", "Retry-After", "X-Graph-Epoch"} {
		if v := resp.Header.Get(k); v != "" {
			h.Set(k, v)
		}
	}
	h.Set("X-Mbb-Worker", worker)
	w.WriteHeader(resp.StatusCode)
	w.Write(buf.Bytes())
	return resp.StatusCode, true
}

// jobForward resolves a job id to the worker that ran it — the learned
// route when we have it, otherwise a fan-out probe (coordinator
// restarts forget routes; the jobs themselves live on).
func (c *Coordinator) jobForward(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	c.routeMu.Lock()
	worker, known := c.routes[id]
	c.routeMu.Unlock()
	if known {
		status, ok := c.forward(w, r, worker, nil)
		if ok && status != http.StatusNotFound {
			return
		}
		// Stale or unreachable: drop the route and fall through to the
		// fan-out lookup. A relayed 404 already answered the client
		// (the job may have been retention-pruned there), so only a
		// transport error — response unwritten — retries below.
		c.routeMu.Lock()
		delete(c.routes, id)
		c.routeMu.Unlock()
		if ok {
			return
		}
	}
	for _, u := range c.ring.Nodes() {
		if ok, _, _ := c.workers[u].snapshot(); !ok {
			continue
		}
		resp, err := c.proxyGet(r, u, "/jobs/"+id+c.rawQuery(r))
		if err != nil {
			continue
		}
		if resp.StatusCode == http.StatusNotFound {
			resp.Body.Close()
			continue
		}
		// Found it. Re-issue the real method against the right worker so
		// DELETE and ?wait semantics land where the job lives.
		resp.Body.Close()
		c.learnRouteID(id, u)
		c.forward(w, r, u, nil)
		return
	}
	writeError(w, http.StatusNotFound, "unknown job %q on any ready worker", id)
}

func (c *Coordinator) learnRouteID(id, worker string) {
	c.learnRoute([]byte(fmt.Sprintf(`{"id":%q}`, id)), worker)
}

func (c *Coordinator) rawQuery(r *http.Request) string {
	if r.URL.RawQuery != "" {
		return "?" + r.URL.RawQuery
	}
	return ""
}

func (c *Coordinator) proxyGet(r *http.Request, worker, path string) (*http.Response, error) {
	req, err := http.NewRequestWithContext(r.Context(), http.MethodGet, worker+path, nil)
	if err != nil {
		return nil, err
	}
	return c.client.Do(req)
}

// handleGraphs merges every ready worker's graph list, preferring each
// graph's shard-owner copy (its counters are authoritative; replica
// copies lag by design).
func (c *Coordinator) handleGraphs(w http.ResponseWriter, r *http.Request) {
	type entry struct {
		raw   json.RawMessage
		owned bool
	}
	merged := make(map[string]entry)
	var order []string
	for _, u := range c.ring.Nodes() {
		if ok, _, _ := c.workers[u].snapshot(); !ok {
			continue
		}
		resp, err := c.proxyGet(r, u, "/graphs")
		if err != nil {
			continue
		}
		var list []json.RawMessage
		err = json.NewDecoder(io.LimitReader(resp.Body, 64<<20)).Decode(&list)
		resp.Body.Close()
		if err != nil {
			continue
		}
		for _, raw := range list {
			var probe struct {
				Name string `json:"name"`
			}
			if json.Unmarshal(raw, &probe) != nil || probe.Name == "" {
				continue
			}
			owned := c.ring.Owner(probe.Name) == u
			if old, seen := merged[probe.Name]; seen {
				if !old.owned && owned {
					merged[probe.Name] = entry{raw, true}
				}
				continue
			}
			merged[probe.Name] = entry{raw, owned}
			order = append(order, probe.Name)
		}
	}
	sort.Strings(order)
	out := make([]json.RawMessage, 0, len(order))
	for _, n := range order {
		out = append(out, merged[n].raw)
	}
	writeJSON(w, http.StatusOK, out)
}

// handleJobs concatenates every ready worker's job list, tagging each
// entry with the worker it came from.
func (c *Coordinator) handleJobs(w http.ResponseWriter, r *http.Request) {
	type taggedJob struct {
		Worker string          `json:"worker"`
		Job    json.RawMessage `json:"job"`
	}
	var out []taggedJob
	for _, u := range c.ring.Nodes() {
		if ok, _, _ := c.workers[u].snapshot(); !ok {
			continue
		}
		resp, err := c.proxyGet(r, u, "/jobs")
		if err != nil {
			continue
		}
		var list []json.RawMessage
		err = json.NewDecoder(io.LimitReader(resp.Body, 64<<20)).Decode(&list)
		resp.Body.Close()
		if err != nil {
			continue
		}
		for _, raw := range list {
			out = append(out, taggedJob{Worker: u, Job: raw})
		}
	}
	writeJSON(w, http.StatusOK, out)
}

// handleStats maps each worker URL to its /stats payload (no merging:
// per-shard numbers are what an operator debugging imbalance needs).
func (c *Coordinator) handleStats(w http.ResponseWriter, r *http.Request) {
	out := make(map[string]json.RawMessage)
	for _, u := range c.ring.Nodes() {
		resp, err := c.proxyGet(r, u, "/stats"+c.rawQuery(r))
		if err != nil {
			out[u] = json.RawMessage(fmt.Sprintf(`{"error":%q}`, err.Error()))
			continue
		}
		raw, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
		resp.Body.Close()
		if err != nil || !json.Valid(raw) {
			out[u] = json.RawMessage(`{"error":"bad stats payload"}`)
			continue
		}
		out[u] = raw
	}
	writeJSON(w, http.StatusOK, out)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}
