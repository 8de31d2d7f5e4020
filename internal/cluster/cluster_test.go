package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bigraph"
	"repro/internal/server"
	"repro/internal/wal"
)

// k33 is K3,3 in edge-list format; its maximum balanced biclique is 3×3.
const k33 = "3 3 9\n0 0\n0 1\n0 2\n1 0\n1 1\n1 2\n2 0\n2 1\n2 2\n"

type testWorker struct {
	srv    *server.Server
	ts     *httptest.Server
	tm     *TailManager
	url    string
	killed bool
}

// kill simulates a worker death: stop tailing, unblock the replicate
// handlers (srv.Close), then close the listener so probes see refusals.
func (w *testWorker) kill() {
	if w.killed {
		return
	}
	w.killed = true
	w.tm.Close()
	w.srv.Close()
	w.ts.Close()
}

// startCluster brings up n durable workers on one ring. Listeners are
// bound (so URLs are known) before any server starts serving, which is
// what lets every worker be configured with the full peer list.
func startCluster(t *testing.T, n, replication int, maxLag time.Duration) []*testWorker {
	t.Helper()
	workers := make([]*testWorker, n)
	var peers []string
	for i := range workers {
		srv, err := server.New(server.Options{
			Workers: 2, QueueCap: 8, DefaultTimeout: time.Minute,
			DataDir: t.TempDir(), WALSync: "off",
			RetainEpochs: 8, MaxReplicaLag: maxLag,
		})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewUnstartedServer(srv.Handler())
		url := "http://" + ts.Listener.Addr().String()
		workers[i] = &testWorker{srv: srv, ts: ts, url: url}
		peers = append(peers, url)
	}
	for _, w := range workers {
		tm, err := NewTailManager(w.srv.Store(), Config{Self: w.url, Peers: peers, Replication: replication})
		if err != nil {
			t.Fatal(err)
		}
		w.tm = tm
		w.srv.SetCluster(tm)
		w.ts.Start()
		tm.Start()
	}
	t.Cleanup(func() {
		for _, w := range workers {
			if !w.killed {
				w.tm.Close()
			}
		}
		for _, w := range workers {
			if !w.killed {
				w.srv.Close()
				w.ts.Close()
			}
		}
	})
	return workers
}

func byURL(workers []*testWorker, url string) *testWorker {
	for _, w := range workers {
		if w.url == url {
			return w
		}
	}
	return nil
}

// pickName finds a graph name the given worker owns.
func pickName(t *testing.T, r *Ring, owner string) string {
	t.Helper()
	for i := 0; i < 10_000; i++ {
		name := fmt.Sprintf("g%d", i)
		if r.Owner(name) == owner {
			return name
		}
	}
	t.Fatalf("no name owned by %s in 10k tries", owner)
	return ""
}

func doReq(t *testing.T, method, url, body string) (*http.Response, []byte) {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
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

func decodeT[T any](t *testing.T, data []byte) T {
	t.Helper()
	var v T
	if err := json.Unmarshal(data, &v); err != nil {
		t.Fatalf("decode %q: %v", data, err)
	}
	return v
}

// waitFor polls cond until it returns true or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// TestClusterShardingReplicationFailover is the end-to-end tentpole
// test: upload routes to the shard owner, mutations land on the owner's
// WAL and replicate, every worker answers the same result for the same
// epoch (current and historical), and a dead owner leaves reads serving
// while mutations back off with Retry-After.
func TestClusterShardingReplicationFailover(t *testing.T) {
	workers := startCluster(t, 3, 3, -1) // unbounded lag: availability over freshness
	peers := make([]string, len(workers))
	for i, w := range workers {
		peers[i] = w.url
	}
	coord, err := NewCoordinator(CoordinatorConfig{Peers: peers, Replication: 3, ProbeInterval: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	coord.Start()
	t.Cleanup(coord.Close)
	cts := httptest.NewServer(server.Chain(coord.Handler(), server.RequestID))
	t.Cleanup(cts.Close)

	waitFor(t, 5*time.Second, "all workers ready at the coordinator", func() bool {
		resp, data := doReq(t, http.MethodGet, cts.URL+"/readyz", "")
		st := decodeT[map[string]any](t, data)
		return resp.StatusCode == http.StatusOK && st["workers_ready"] == float64(3)
	})

	ring := workers[0].tm.Ring()
	name := pickName(t, ring, workers[0].url) // owned by worker 0
	owner := workers[0]

	// Placement introspection agrees with the ring.
	_, data := doReq(t, http.MethodGet, cts.URL+"/cluster?name="+name, "")
	place := decodeT[GraphPlacement](t, data)
	if place.Owner != owner.url || len(place.Replicas) != 3 {
		t.Fatalf("placement %+v, want owner %s and 3 replicas", place, owner.url)
	}

	// Upload through the coordinator: must land on the owner.
	resp, data := doReq(t, http.MethodPut, cts.URL+"/graphs/"+name, k33)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("PUT via coordinator: %d %s", resp.StatusCode, data)
	}
	if got := resp.Header.Get("X-Mbb-Worker"); got != owner.url {
		t.Fatalf("upload routed to %s, want owner %s", got, owner.url)
	}

	// Mutate through the coordinator; the owner's epoch advances.
	resp, data = doReq(t, http.MethodPost, cts.URL+"/graphs/"+name+"/edges", `{"del":[[2,2]]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mutate via coordinator: %d %s", resp.StatusCode, data)
	}

	// A mutation sent straight at a non-owner is refused with the owner
	// named — durability-before-visibility only holds on the owner's WAL.
	resp, _ = doReq(t, http.MethodPost, workers[1].url+"/graphs/"+name+"/edges", `{"del":[[0,0]]}`)
	if resp.StatusCode != http.StatusMisdirectedRequest {
		t.Fatalf("non-owner mutation: %d, want 421", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Mbb-Owner"); got != owner.url {
		t.Fatalf("421 names owner %q, want %s", got, owner.url)
	}

	// Every replica converges on epoch 1 through the delta stream.
	for _, w := range workers {
		w := w
		waitFor(t, 10*time.Second, "replica "+w.url+" at epoch 1", func() bool {
			resp, data := doReq(t, http.MethodGet, w.url+"/graphs/"+name, "")
			return resp.StatusCode == http.StatusOK && decodeT[server.GraphInfo](t, data).Epoch == 1
		})
	}

	// Per-epoch exactness across the cluster: every worker answers the
	// same size/exactness for the same epoch, current and historical.
	for _, epoch := range []string{"", "?epoch=0", "?epoch=1"} {
		var want *server.JobResult
		for _, w := range workers {
			resp, data := doReq(t, http.MethodPost, w.url+"/graphs/"+name+"/solve"+epoch, `{"timeout":"30s"}`)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("solve%s at %s: %d %s", epoch, w.url, resp.StatusCode, data)
			}
			job := decodeT[server.JobInfo](t, data)
			if job.Result == nil || !job.Result.Exact {
				t.Fatalf("solve%s at %s: inexact or empty result %+v", epoch, w.url, job)
			}
			if want == nil {
				want = job.Result
				continue
			}
			if job.Result.Size != want.Size || job.Result.Epoch != want.Epoch {
				t.Fatalf("solve%s disagreement: %s says size=%d epoch=%d, first said size=%d epoch=%d",
					epoch, w.url, job.Result.Size, job.Result.Epoch, want.Size, want.Epoch)
			}
		}
	}

	// Kill the owner. Reads keep working through replicas (lag is
	// unbounded here); mutations to its shard back off with Retry-After.
	owner.kill()
	waitFor(t, 5*time.Second, "coordinator to mark the dead worker", func() bool {
		_, data := doReq(t, http.MethodGet, cts.URL+"/cluster", "")
		for _, wi := range decodeT[ClusterTopology](t, data).Workers {
			if wi.URL == owner.url {
				return !wi.Ready
			}
		}
		return false
	})

	resp, data = doReq(t, http.MethodPost, cts.URL+"/graphs/"+name+"/solve", `{"timeout":"30s"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve after owner death: %d %s", resp.StatusCode, data)
	}
	if got := resp.Header.Get("X-Mbb-Worker"); got == owner.url {
		t.Fatalf("solve answered by the dead owner %s", got)
	}
	job := decodeT[server.JobInfo](t, data)
	if job.Result == nil || job.Result.Epoch != 1 {
		t.Fatalf("post-failure solve result %+v, want epoch 1", job)
	}

	resp, data = doReq(t, http.MethodPost, cts.URL+"/graphs/"+name+"/edges", `{"del":[[0,1]]}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("mutation with dead owner: %d %s, want 503", resp.StatusCode, data)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 for dead-owner mutation lacks Retry-After")
	}
}

// TestReplicaLagGate pins the no-stale-serve satellite: once the owner
// stops streaming and the replica's lag passes MaxReplicaLag, replica
// solves return 503 + Retry-After instead of quietly serving old state.
func TestReplicaLagGate(t *testing.T) {
	workers := startCluster(t, 2, 2, 100*time.Millisecond)
	ring := workers[0].tm.Ring()
	name := pickName(t, ring, workers[0].url)
	owner, replica := workers[0], workers[1]

	resp, data := doReq(t, http.MethodPut, owner.url+"/graphs/"+name, k33)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("PUT at owner: %d %s", resp.StatusCode, data)
	}
	waitFor(t, 10*time.Second, "replica to receive the graph", func() bool {
		resp, _ := doReq(t, http.MethodGet, replica.url+"/graphs/"+name, "")
		return resp.StatusCode == http.StatusOK
	})
	waitFor(t, 10*time.Second, "replica solve to pass the gate", func() bool {
		resp, _ := doReq(t, http.MethodPost, replica.url+"/graphs/"+name+"/solve", `{"timeout":"30s"}`)
		return resp.StatusCode == http.StatusOK
	})

	owner.kill()
	var last *http.Response
	waitFor(t, 10*time.Second, "lag gate to trip after owner death", func() bool {
		resp, _ := doReq(t, http.MethodPost, replica.url+"/graphs/"+name+"/solve", `{"timeout":"30s"}`)
		last = resp
		return resp.StatusCode == http.StatusServiceUnavailable
	})
	if last.Header.Get("Retry-After") == "" {
		t.Fatal("lag-gated 503 lacks Retry-After")
	}
	// The gate also feeds readiness: a lag-bound replica drops out of
	// rotation instead of serving stale answers.
	resp, data = doReq(t, http.MethodGet, replica.url+"/readyz", "")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("lagging replica /readyz: %d %s, want 503", resp.StatusCode, data)
	}
}

// TestApplyReplicaVersionSkew pins the codec-skew satellite: a frame
// carrying a newer codec version is rejected before any state changes —
// no partial apply, and the stream position does not move past it.
func TestApplyReplicaVersionSkew(t *testing.T) {
	srv, err := server.New(server.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	st := srv.Store()

	g, err := st.Parse(strings.NewReader(k33), server.FormatEdgeList)
	if err != nil {
		t.Fatal(err)
	}
	payload := g.MarshalBinary()

	// A skewed full-graph record never installs.
	bad := append([]byte(nil), payload...)
	bad[2] = 99 // codec version byte
	if err := st.ApplyReplica(wal.Record{Type: wal.RecPut, Name: "skewed", Gen: 1, Payload: bad}, false); err == nil {
		t.Fatal("version-skewed graph record applied")
	}
	if _, ok := st.Get("skewed"); ok {
		t.Fatal("skewed record left a graph behind (partial apply)")
	}

	// Install a clean replica copy, then hit it with a skewed delta.
	if err := st.ApplyReplica(wal.Record{Type: wal.RecPut, Name: "g", Gen: 1, Payload: payload}, false); err != nil {
		t.Fatal(err)
	}
	enc, err := bigraph.Delta{Del: [][2]int{{0, 0}}}.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	badDelta := append([]byte(nil), enc...)
	badDelta[2] = 99
	if err := st.ApplyReplica(wal.Record{Type: wal.RecDelta, Name: "g", Gen: 1, Epoch: 1, Payload: badDelta}, false); err == nil {
		t.Fatal("version-skewed delta applied")
	}
	sg, _ := st.Get("g")
	if sg.Info().Epoch != 0 {
		t.Fatalf("skewed delta moved the epoch to %d", sg.Info().Epoch)
	}

	// The same delta with the right version applies cleanly afterwards:
	// the rejection left no poisoned state.
	if err := st.ApplyReplica(wal.Record{Type: wal.RecDelta, Name: "g", Gen: 1, Epoch: 1, Payload: enc}, false); err != nil {
		t.Fatal(err)
	}
	if sg.Info().Epoch != 1 {
		t.Fatalf("clean delta after rejection: epoch %d, want 1", sg.Info().Epoch)
	}

	// An out-of-sequence delta is the resync signal, not a crash.
	if err := st.ApplyReplica(wal.Record{Type: wal.RecDelta, Name: "g", Gen: 1, Epoch: 5, Payload: enc}, false); !errors.Is(err, server.ErrReplicaGap) {
		t.Fatalf("epoch-gap delta: %v, want ErrReplicaGap", err)
	}
}

// TestReplicaConvergesOnCompactedHead: an owner whose log starts with a
// compacted checkpoint head in which a mutation raced the checkpoint —
// [Delta G@1, GraphSnap G@1, CheckpointEnd], the Put compacted away —
// must replicate to a fresh replica without a single resync.
func TestReplicaConvergesOnCompactedHead(t *testing.T) {
	ownerTS := httptest.NewUnstartedServer(nil)
	t.Cleanup(ownerTS.Close)
	ownerURL := "http://" + ownerTS.Listener.Addr().String()
	replicaURL := "http://replica.invalid" // nothing dials the replica
	peers := []string{ownerURL, replicaURL}
	ring, err := NewRing(peers, 0)
	if err != nil {
		t.Fatal(err)
	}
	name := pickName(t, ring, ownerURL)

	b := bigraph.NewBuilder(2, 2)
	b.AddEdge(0, 0)
	b.AddEdge(0, 1)
	b.AddEdge(1, 1)
	delta, err := bigraph.Delta{Add: [][2]int{{0, 1}}}.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	l, _, err := wal.Open(dir, wal.Options{Sync: wal.SyncOff}, func(wal.Record) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range []wal.Record{
		{Type: wal.RecDelta, Name: name, Gen: 1, Epoch: 1, Payload: delta},
		{Type: wal.RecGraphSnap, Name: name, Gen: 1, Epoch: 1, Payload: b.Build().AppendBinary(nil)},
		{Type: wal.RecCheckpointEnd},
	} {
		if err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	owner, err := server.New(server.Options{Workers: 1, DataDir: dir, WALSync: "off"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(owner.Close)
	ownerTS.Config.Handler = owner.Handler()
	ownerTS.Start()

	replica := server.NewStore(0, 0)
	tm, err := NewTailManager(replica, Config{Self: replicaURL, Peers: peers, Replication: 2})
	if err != nil {
		t.Fatal(err)
	}
	tm.Start()
	t.Cleanup(tm.Close)

	waitFor(t, 10*time.Second, "replica at epoch 1", func() bool {
		sg, ok := replica.Get(name)
		return ok && sg.Epoch() == 1
	})
	if st := tm.Status(); st.Resyncs != 0 {
		t.Fatalf("replica converged after %d resyncs, want 0", st.Resyncs)
	}
}

// TestReplicaFollowsOwnerRestart restarts an owner after a checkpoint
// compacted away a deleted graph's records, so the restarted owner can
// issue the deleted generation's id again. A replica that applied the
// Delete must still install the new upload and its mutations.
func TestReplicaFollowsOwnerRestart(t *testing.T) {
	var owner atomic.Pointer[server.Server]
	ownerTS := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if o := owner.Load(); o != nil {
			o.Handler().ServeHTTP(w, r)
			return
		}
		http.Error(w, "restarting", http.StatusServiceUnavailable)
	}))
	t.Cleanup(ownerTS.Close)
	replicaURL := "http://replica.invalid" // nothing dials the replica
	peers := []string{ownerTS.URL, replicaURL}
	ring, err := NewRing(peers, 0)
	if err != nil {
		t.Fatal(err)
	}
	name := pickName(t, ring, ownerTS.URL)
	dir := t.TempDir()
	open := func() *server.Server {
		o, err := server.New(server.Options{Workers: 1, DataDir: dir, WALSync: "off"})
		if err != nil {
			t.Fatal(err)
		}
		owner.Store(o)
		return o
	}
	graph := func() *bigraph.Graph {
		b := bigraph.NewBuilder(2, 2)
		b.AddEdge(0, 0)
		b.AddEdge(1, 1)
		return b.Build()
	}

	o1 := open()
	replica := server.NewStore(0, 0)
	tm, err := NewTailManager(replica, Config{Self: replicaURL, Peers: peers, Replication: 2})
	if err != nil {
		t.Fatal(err)
	}
	tm.Start()
	t.Cleanup(tm.Close)

	if _, err := o1.Store().Put(name, graph()); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "replica holds the first upload", func() bool {
		_, ok := replica.Get(name)
		return ok
	})
	if _, err := o1.Store().Delete(name); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "replica applies the delete", func() bool {
		_, ok := replica.Get(name)
		return !ok
	})
	if err := o1.Store().Checkpoint(); err != nil {
		t.Fatal(err)
	}
	owner.Store(nil)
	o1.Close()

	o2 := open()
	t.Cleanup(o2.Close)
	sg, err := o2.Store().Put(name, graph())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := sg.Mutate(bigraph.Delta{Add: [][2]int{{0, 1}}}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "replica holds the second upload at epoch 1", func() bool {
		rg, ok := replica.Get(name)
		return ok && rg.Generation() == sg.Generation() && rg.Epoch() == 1
	})
}

// TestCoordinatorAdmission pins the admission-control split: every
// candidate refusing with 503 means saturation (429, short retry); no
// ready candidate at all means outage (503, long retry).
func TestCoordinatorAdmission(t *testing.T) {
	ready := func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `{"ready":true,"synced":true}`)
	}
	busy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/readyz" {
			ready(w, r)
			return
		}
		w.Header().Set("Retry-After", "1")
		http.Error(w, `{"error":"queue full"}`, http.StatusServiceUnavailable)
	}))
	t.Cleanup(busy.Close)
	busy2 := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/readyz" {
			ready(w, r)
			return
		}
		w.Header().Set("Retry-After", "1")
		http.Error(w, `{"error":"queue full"}`, http.StatusServiceUnavailable)
	}))
	t.Cleanup(busy2.Close)

	coord, err := NewCoordinator(CoordinatorConfig{
		Peers: []string{busy.URL, busy2.URL}, Replication: 2, ProbeInterval: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	coord.Start()
	t.Cleanup(coord.Close)
	cts := httptest.NewServer(coord.Handler())
	t.Cleanup(cts.Close)

	waitFor(t, 5*time.Second, "stub workers ready", func() bool {
		resp, _ := doReq(t, http.MethodGet, cts.URL+"/readyz", "")
		return resp.StatusCode == http.StatusOK
	})

	// Both candidates answer 503: the cluster is saturated → 429.
	resp, data := doReq(t, http.MethodPost, cts.URL+"/graphs/any/solve", "")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated solve: %d %s, want 429", resp.StatusCode, data)
	}
	if resp.Header.Get("Retry-After") != "1" {
		t.Fatalf("429 Retry-After %q, want 1", resp.Header.Get("Retry-After"))
	}

	// Kill both: no ready candidate → 503 with the longer retry.
	busy.Close()
	busy2.Close()
	waitFor(t, 5*time.Second, "stub workers marked down", func() bool {
		resp, _ := doReq(t, http.MethodGet, cts.URL+"/readyz", "")
		return resp.StatusCode == http.StatusServiceUnavailable
	})
	resp, data = doReq(t, http.MethodPost, cts.URL+"/graphs/any/solve", "")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("no-worker solve: %d %s, want 503", resp.StatusCode, data)
	}
	if resp.Header.Get("Retry-After") != "5" {
		t.Fatalf("503 Retry-After %q, want 5", resp.Header.Get("Retry-After"))
	}
}
