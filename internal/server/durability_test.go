package server

import (
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/baseline"
	"repro/internal/bigraph"
	"repro/internal/wal"
)

// --- model helpers -----------------------------------------------------

type edgeSet map[[2]int]bool

func edgeSetOf(g *bigraph.Graph) edgeSet {
	es := make(edgeSet, g.NumEdges())
	for _, e := range g.Edges() {
		es[e] = true
	}
	return es
}

func buildGraph(nl, nr int, es edgeSet) *bigraph.Graph {
	b := bigraph.NewBuilder(nl, nr)
	for e := range es {
		b.AddEdge(e[0], e[1])
	}
	return b.Build()
}

func (es edgeSet) clone() edgeSet {
	out := make(edgeSet, len(es))
	for e := range es {
		out[e] = true
	}
	return out
}

// modelGraph mirrors one stored graph: its dimensions and the edge set
// at every epoch since the last upload.
type modelGraph struct {
	nl, nr int
	hist   []edgeSet // hist[epoch] = edges
}

func (m *modelGraph) clone() *modelGraph {
	out := &modelGraph{nl: m.nl, nr: m.nr, hist: make([]edgeSet, len(m.hist))}
	for i, es := range m.hist {
		out.hist[i] = es.clone()
	}
	return out
}

func cloneModel(model map[string]*modelGraph) map[string]*modelGraph {
	out := make(map[string]*modelGraph, len(model))
	for name, m := range model {
		out[name] = m.clone()
	}
	return out
}

// walSegPath returns the single segment file of a one-segment log.
func walSegPath(t *testing.T, dir string) string {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("want exactly one WAL segment, got %v (err %v)", segs, err)
	}
	return segs[0]
}

// checkRecovered asserts that the recovered store matches the model at a
// durable point: same graphs, same final epochs and edge sets, and every
// retained epoch's graph both matches the model history and solves to
// the brute-force optimum of the model graph.
func checkRecovered(t *testing.T, s *Store, model map[string]*modelGraph) {
	t.Helper()
	if s.Len() != len(model) {
		t.Fatalf("recovered %d graphs, want %d", s.Len(), len(model))
	}
	for name, m := range model {
		sg, ok := s.Get(name)
		if !ok {
			t.Fatalf("graph %q missing after recovery", name)
		}
		wantEpoch := uint64(len(m.hist) - 1)
		if sg.Epoch() != wantEpoch {
			t.Fatalf("graph %q at epoch %d, want %d", name, sg.Epoch(), wantEpoch)
		}
		lo, hi, n := sg.RetainedRange()
		if hi != wantEpoch || n < 1 {
			t.Fatalf("graph %q retained range [%d,%d] n=%d, want hi=%d", name, lo, hi, n, wantEpoch)
		}
		for e := lo; e <= hi; e++ {
			snap, ok := sg.SnapshotAt(e)
			if !ok {
				t.Fatalf("graph %q epoch %d not resolvable inside retained range [%d,%d]", name, e, lo, hi)
			}
			got := edgeSetOf(snap.Graph())
			want := m.hist[e]
			if len(got) != len(want) {
				t.Fatalf("graph %q epoch %d has %d edges, want %d", name, e, len(got), len(want))
			}
			for edge := range want {
				if !got[edge] {
					t.Fatalf("graph %q epoch %d missing edge %v", name, e, edge)
				}
			}
			if got, want := baseline.BruteForceSize(snap.Graph()), baseline.BruteForceSize(buildGraph(m.nl, m.nr, want)); got != want {
				t.Fatalf("graph %q epoch %d solves to %d, oracle says %d", name, e, got, want)
			}
		}
	}
}

// --- crash-recovery property test --------------------------------------

// TestCrashRecoveryProperty drives a random upload/mutate/delete script
// against a WAL-backed store under SyncAlways, recording the durable log
// size after every operation. It then simulates a crash by truncating
// the log at a random point — a record boundary or mid-record (a torn
// tail) — recovers a fresh store from what survived, and asserts the
// result equals the model folded over exactly the surviving operations:
// same graphs, same epochs, same edges, and every retained epoch solves
// to the brute-force optimum. The surviving records, applied to another
// fresh store through ApplyReplica, must meet the same model.
func TestCrashRecoveryProperty(t *testing.T) {
	for seed := int64(0); seed < 16; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			crashRecoveryRound(t, seed)
		})
	}
}

func crashRecoveryRound(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	dir := t.TempDir()

	s := NewStore(0, 0)
	s.SetRetainEpochs(4)
	if _, err := s.OpenWAL(dir, wal.Options{Sync: wal.SyncAlways, SegmentBytes: 1 << 30}, false); err != nil {
		t.Fatal(err)
	}
	seg := ""

	names := []string{"alpha", "beta", "gamma"}
	model := make(map[string]*modelGraph)

	type durablePoint struct {
		size  int64
		model map[string]*modelGraph
	}
	var durable []durablePoint
	note := func() {
		if seg == "" {
			seg = walSegPath(t, dir)
		}
		fi, err := os.Stat(seg)
		if err != nil {
			t.Fatal(err)
		}
		durable = append(durable, durablePoint{size: fi.Size(), model: cloneModel(model)})
	}

	randomEdges := func(nl, nr int) edgeSet {
		es := make(edgeSet)
		for l := 0; l < nl; l++ {
			for r := 0; r < nr; r++ {
				if rng.Intn(2) == 0 {
					es[[2]int{l, r}] = true
				}
			}
		}
		return es
	}

	for op := 0; op < 40; op++ {
		name := names[rng.Intn(len(names))]
		m, exists := model[name]
		switch k := rng.Intn(10); {
		case k < 3 || !exists: // upload (or replace)
			nl, nr := 1+rng.Intn(5), 1+rng.Intn(5)
			es := randomEdges(nl, nr)
			if _, err := s.Put(name, buildGraph(nl, nr, es)); err != nil {
				t.Fatalf("put %s: %v", name, err)
			}
			model[name] = &modelGraph{nl: nl, nr: nr, hist: []edgeSet{es}}
		case k < 9: // mutate
			var d bigraph.Delta
			for i := 0; i < 1+rng.Intn(4); i++ {
				e := [2]int{rng.Intn(m.nl), rng.Intn(m.nr)}
				if rng.Intn(2) == 0 {
					d.Add = append(d.Add, e)
				} else {
					d.Del = append(d.Del, e)
				}
			}
			sg, _ := s.Get(name)
			before := sg.Epoch()
			snap, _, err := sg.Mutate(d)
			if err != nil {
				t.Fatalf("mutate %s: %v", name, err)
			}
			if snap.Epoch() > before {
				m.hist = append(m.hist, edgeSetOf(snap.Graph()))
			}
		default: // delete
			if _, err := s.Delete(name); err != nil {
				t.Fatalf("delete %s: %v", name, err)
			}
			delete(model, name)
		}
		note()
	}

	// Crash: truncate the log at a random durable point, possibly with a
	// torn fragment of the next record after it.
	k := rng.Intn(len(durable))
	cut := durable[k].size
	if k+1 < len(durable) {
		if gap := durable[k+1].size - cut; gap > 0 {
			cut += rng.Int63n(gap)
		}
	}
	if err := os.Truncate(seg, cut); err != nil {
		t.Fatal(err)
	}

	s2 := NewStore(0, 0)
	s2.SetRetainEpochs(4)
	rs, err := s2.OpenWAL(dir, wal.Options{Sync: wal.SyncOff, SegmentBytes: 1 << 30}, false)
	if err != nil {
		t.Fatalf("recover after cut at %d (durable point %d/%d): %v", cut, k, len(durable), err)
	}
	checkRecovered(t, s2, durable[k].model)
	if rs.Graphs != len(durable[k].model) {
		t.Fatalf("RecoverStats.Graphs = %d, want %d", rs.Graphs, len(durable[k].model))
	}
	if err := s2.CloseWAL(); err != nil {
		t.Fatal(err)
	}

	// Replay equals apply: the surviving records, applied as a replica
	// would, reach the same state.
	var survived []wal.Record
	l, _, err := wal.Open(dir, wal.Options{Sync: wal.SyncOff, SegmentBytes: 1 << 30}, func(rec wal.Record) error {
		survived = append(survived, rec)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	s3 := NewStore(0, 0)
	s3.SetRetainEpochs(4)
	for i, rec := range survived {
		if err := s3.ApplyReplica(rec, false); err != nil {
			t.Fatalf("replica apply of record %d (%s %q): %v", i, rec.Type, rec.Name, err)
		}
	}
	checkRecovered(t, s3, durable[k].model)
}

// graphState is what a store holds for one name: the incarnation and
// the epoch it is at.
type graphState struct{ gen, epoch uint64 }

func graphStates(s *Store) map[string]graphState {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make(map[string]graphState, len(s.graphs))
	for name, sg := range s.graphs {
		out[name] = graphState{sg.gen, sg.Epoch()}
	}
	return out
}

// TestReplayEqualsApply writes record orders that a live store really
// logs to a WAL, rebuilds one fresh store by recovery (OpenWAL) and one
// by replica apply (ApplyReplica), and asserts both end in the same,
// expected state without error — or, for a log no store can produce,
// that both refuse it.
func TestReplayEqualsApply(t *testing.T) {
	g0 := buildGraph(2, 2, edgeSet{{0, 0}: true, {1, 1}: true})
	g1 := buildGraph(2, 2, edgeSet{{0, 0}: true, {1, 1}: true, {0, 1}: true})
	delta, err := bigraph.Delta{Add: [][2]int{{0, 1}}}.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	noop, err := bigraph.Delta{Add: [][2]int{{0, 0}}}.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	put := wal.Record{Type: wal.RecPut, Name: "g", Gen: 1, Payload: g0.AppendBinary(nil)}
	del := wal.Record{Type: wal.RecDelete, Name: "g", Gen: 1}
	delta1 := wal.Record{Type: wal.RecDelta, Name: "g", Gen: 1, Epoch: 1, Payload: delta}
	cases := []struct {
		name    string
		recs    []wal.Record
		want    map[string]graphState
		wantErr bool
	}{{
		// Checkpoint appends each snapshot after releasing the store
		// lock, so a Delete can be logged before the deleted graph's
		// snapshot.
		name: "delete then checkpoint snapshot",
		recs: []wal.Record{put, del, {Type: wal.RecGraphSnap, Name: "g", Gen: 1, Payload: g0.AppendBinary(nil)}},
		want: map[string]graphState{},
	}, {
		// A compacted checkpoint head where a mutation raced the
		// checkpoint: the Put is gone, the delta precedes the snapshot
		// that already holds it.
		name: "compacted head with raced delta",
		recs: []wal.Record{delta1, {Type: wal.RecGraphSnap, Name: "g", Gen: 1, Epoch: 1, Payload: g1.AppendBinary(nil)}, {Type: wal.RecCheckpointEnd}},
		want: map[string]graphState{"g": {gen: 1, epoch: 1}},
	}, {
		// The mutate handler looks the graph up and mutates it without
		// the store lock, so a Delete can be logged before the delta.
		name: "delta after delete",
		recs: []wal.Record{put, del, delta1},
		want: map[string]graphState{},
	}, {
		// An owner restarted after a checkpoint compacted away its
		// highest generations issues those ids again: the Put after the
		// tombstone is a new incarnation, and its deltas apply.
		name: "put reusing a deleted generation",
		recs: []wal.Record{put, del, {Type: wal.RecCheckpointEnd}, put, delta1},
		want: map[string]graphState{"g": {gen: 1, epoch: 1}},
	}, {
		// Only effective deltas are logged: one that changes nothing
		// means the store diverged from the log.
		name:    "delta without effect",
		recs:    []wal.Record{put, {Type: wal.RecDelta, Name: "g", Gen: 1, Epoch: 1, Payload: noop}},
		wantErr: true,
	}, {
		name:    "epoch gap",
		recs:    []wal.Record{put, {Type: wal.RecDelta, Name: "g", Gen: 1, Epoch: 2, Payload: delta}},
		wantErr: true,
	}}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			l, _, err := wal.Open(dir, wal.Options{Sync: wal.SyncOff}, func(wal.Record) error { return nil })
			if err != nil {
				t.Fatal(err)
			}
			for _, rec := range tc.recs {
				if err := l.Append(rec); err != nil {
					t.Fatal(err)
				}
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}

			recovered := NewStore(0, 0)
			_, rerr := recovered.OpenWAL(dir, wal.Options{Sync: wal.SyncOff}, false)
			if rerr == nil {
				defer recovered.CloseWAL()
			}
			replica := NewStore(0, 0)
			var aerr error
			for _, rec := range tc.recs {
				if aerr = replica.ApplyReplica(rec, false); aerr != nil {
					break
				}
			}
			if tc.wantErr {
				if rerr == nil || aerr == nil {
					t.Fatalf("recovery error %v, replica error %v; want both to refuse the log", rerr, aerr)
				}
				return
			}
			if rerr != nil || aerr != nil {
				t.Fatalf("recovery error %v, replica error %v", rerr, aerr)
			}
			for _, s := range []*Store{recovered, replica} {
				if got := graphStates(s); !reflect.DeepEqual(got, tc.want) {
					t.Errorf("recovery holds %v, replica holds %v, want %v", graphStates(recovered), graphStates(replica), tc.want)
					break
				}
			}
		})
	}
}

// TestRecoveryAfterCheckpointCompaction exercises the full durable
// lifecycle: small segments force rotation, explicit checkpoints compact
// history behind them (including a deleted graph whose tombstone must
// survive), and a clean reopen reconstructs the exact final state from
// checkpoint snapshots plus trailing deltas.
func TestRecoveryAfterCheckpointCompaction(t *testing.T) {
	dir := t.TempDir()
	s := NewStore(0, 0)
	s.SetRetainEpochs(3)
	if _, err := s.OpenWAL(dir, wal.Options{Sync: wal.SyncOff, SegmentBytes: 512}, false); err != nil {
		t.Fatal(err)
	}

	mkEdges := func(n, dim int) edgeSet {
		es := make(edgeSet)
		for i := 0; i < n; i++ {
			es[[2]int{i % dim, (i * 3) % dim}] = true
		}
		return es
	}
	if _, err := s.Put("keep", buildGraph(4, 4, mkEdges(7, 4))); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put("drop", buildGraph(3, 3, mkEdges(5, 3))); err != nil {
		t.Fatal(err)
	}
	toggle := func(name string, e [2]int) {
		t.Helper()
		sg, ok := s.Get(name)
		if !ok {
			t.Fatalf("graph %q missing", name)
		}
		var d bigraph.Delta
		if edgeSetOf(sg.Graph())[e] {
			d.Del = [][2]int{e}
		} else {
			d.Add = [][2]int{e}
		}
		if _, _, err := sg.Mutate(d); err != nil {
			t.Fatalf("mutate %s: %v", name, err)
		}
	}
	for i := 0; i < 5; i++ {
		toggle("keep", [2]int{i % 4, (i + 1) % 4})
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Delete("drop"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		toggle("keep", [2]int{(i + 2) % 4, i % 4})
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	toggle("keep", [2]int{0, 0})
	toggle("keep", [2]int{1, 1})

	st := s.WAL().Stats()
	if st.Checkpoints != 2 {
		t.Fatalf("checkpoints = %d, want 2", st.Checkpoints)
	}
	if st.SegmentsDropped == 0 {
		t.Fatal("compaction dropped no segments despite 512-byte segments and two checkpoints")
	}

	// Remember the final state, then reopen the directory fresh.
	sg, _ := s.Get("keep")
	wantEpoch := sg.Epoch()
	wantEdges := edgeSetOf(sg.Graph())
	if err := s.CloseWAL(); err != nil {
		t.Fatal(err)
	}

	s2 := NewStore(0, 0)
	s2.SetRetainEpochs(3)
	rs, err := s2.OpenWAL(dir, wal.Options{Sync: wal.SyncOff, SegmentBytes: 512}, true)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Len() != 1 {
		t.Fatalf("recovered %d graphs, want 1 (tombstoned graph resurrected?)", s2.Len())
	}
	sg2, ok := s2.Get("keep")
	if !ok {
		t.Fatal("graph \"keep\" missing after recovery")
	}
	if sg2.Epoch() != wantEpoch {
		t.Fatalf("recovered epoch %d, want %d", sg2.Epoch(), wantEpoch)
	}
	got := edgeSetOf(sg2.Graph())
	if len(got) != len(wantEdges) {
		t.Fatalf("recovered %d edges, want %d", len(got), len(wantEdges))
	}
	for e := range wantEdges {
		if !got[e] {
			t.Fatalf("recovered graph missing edge %v", e)
		}
	}
	if rs.Snaps == 0 {
		t.Fatalf("recovery replayed no checkpoint snapshots: %+v", rs)
	}
	if rs.PlanWarmed == 0 {
		t.Fatalf("warm recovery built no plans: %+v", rs)
	}
	if err := s2.CloseWAL(); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentMutateWhileCheckpoint races mutations against explicit
// checkpoints (run with -race). Each writer toggles its own edge so
// every mutation is effective; afterwards a fresh store recovered from
// the log must match the live final state exactly.
func TestConcurrentMutateWhileCheckpoint(t *testing.T) {
	dir := t.TempDir()
	s := NewStore(0, 0)
	s.SetRetainEpochs(2)
	if _, err := s.OpenWAL(dir, wal.Options{Sync: wal.SyncOff, SegmentBytes: 4096}, false); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"g0", "g1"} {
		if _, err := s.Put(name, buildGraph(4, 4, edgeSet{{0, 0}: true, {1, 1}: true})); err != nil {
			t.Fatal(err)
		}
	}

	const writers, rounds = 4, 25
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			name := fmt.Sprintf("g%d", w%2)
			sg, _ := s.Get(name)
			edge := [2]int{2 + w/2, 2 + w/2} // this writer's private edge
			for i := 0; i < rounds; i++ {
				var d bigraph.Delta
				if i%2 == 0 {
					d.Add = [][2]int{edge}
				} else {
					d.Del = [][2]int{edge}
				}
				if _, _, err := sg.Mutate(d); err != nil {
					t.Errorf("mutate %s: %v", name, err)
					return
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for {
		if err := s.Checkpoint(); err != nil {
			t.Errorf("checkpoint: %v", err)
			break
		}
		select {
		case <-done:
		default:
			continue
		}
		break
	}
	wg.Wait()

	type state struct {
		epoch uint64
		edges edgeSet
	}
	want := make(map[string]state)
	for _, name := range []string{"g0", "g1"} {
		sg, _ := s.Get(name)
		want[name] = state{epoch: sg.Epoch(), edges: edgeSetOf(sg.Graph())}
	}
	if err := s.CloseWAL(); err != nil {
		t.Fatal(err)
	}

	s2 := NewStore(0, 0)
	if _, err := s2.OpenWAL(dir, wal.Options{Sync: wal.SyncOff}, false); err != nil {
		t.Fatal(err)
	}
	for name, w := range want {
		sg, ok := s2.Get(name)
		if !ok {
			t.Fatalf("graph %q missing after recovery", name)
		}
		if sg.Epoch() != w.epoch {
			t.Fatalf("graph %q recovered at epoch %d, want %d", name, sg.Epoch(), w.epoch)
		}
		got := edgeSetOf(sg.Graph())
		if len(got) != len(w.edges) {
			t.Fatalf("graph %q recovered with %d edges, want %d", name, len(got), len(w.edges))
		}
		for e := range w.edges {
			if !got[e] {
				t.Fatalf("graph %q recovered without edge %v", name, e)
			}
		}
	}
	if err := s2.CloseWAL(); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentPutsLogGenerationsInOrder races uploads of one name (run
// with -race). Replay keeps the newest generation of a name, so the log
// must hold its Puts in generation order, and recovery must land on the
// incarnation the live store kept.
func TestConcurrentPutsLogGenerationsInOrder(t *testing.T) {
	dir := t.TempDir()
	s := NewStore(0, 0)
	if _, err := s.OpenWAL(dir, wal.Options{Sync: wal.SyncOff}, false); err != nil {
		t.Fatal(err)
	}
	g := buildGraph(2, 2, edgeSet{{0, 0}: true})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if _, err := s.Put("g", g); err != nil {
					t.Errorf("put: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	live, _ := s.Get("g")
	if err := s.CloseWAL(); err != nil {
		t.Fatal(err)
	}

	var last uint64
	l, _, err := wal.Open(dir, wal.Options{Sync: wal.SyncOff}, func(rec wal.Record) error {
		if rec.Gen <= last {
			return fmt.Errorf("put of generation %d logged after generation %d", rec.Gen, last)
		}
		last = rec.Gen
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := NewStore(0, 0)
	if _, err := s2.OpenWAL(dir, wal.Options{Sync: wal.SyncOff}, false); err != nil {
		t.Fatal(err)
	}
	defer s2.CloseWAL()
	if got, ok := s2.Get("g"); !ok || got.Generation() != live.Generation() {
		t.Fatalf("recovered %v, want generation %d", graphStates(s2), live.Generation())
	}
}

// --- retention window --------------------------------------------------

// TestRetentionWindow checks the trailing-epoch window: old epochs fall
// out as new ones publish, epochs inside the window resolve to the exact
// historical graph, and a pinned snapshot blocks trimming until
// released.
func TestRetentionWindow(t *testing.T) {
	s := NewStore(0, 0)
	s.SetRetainEpochs(3)
	sg, err := s.Put("g", buildGraph(3, 3, edgeSet{{0, 0}: true}))
	if err != nil {
		t.Fatal(err)
	}
	adds := [][2]int{{0, 1}, {0, 2}, {1, 0}, {1, 1}, {1, 2}}
	histories := []edgeSet{edgeSetOf(sg.Graph())}
	for _, e := range adds {
		snap, _, err := sg.Mutate(bigraph.Delta{Add: [][2]int{e}})
		if err != nil {
			t.Fatal(err)
		}
		histories = append(histories, edgeSetOf(snap.Graph()))
	}
	lo, hi, n := sg.RetainedRange()
	if lo != 3 || hi != 5 || n != 3 {
		t.Fatalf("retained range [%d,%d] n=%d, want [3,5] n=3", lo, hi, n)
	}
	if _, ok := sg.SnapshotAt(2); ok {
		t.Fatal("epoch 2 resolved outside the retention window")
	}
	if _, ok := sg.SnapshotAt(6); ok {
		t.Fatal("future epoch 6 resolved")
	}
	for e := lo; e <= hi; e++ {
		snap, ok := sg.SnapshotAt(e)
		if !ok {
			t.Fatalf("epoch %d not resolvable", e)
		}
		if got := edgeSetOf(snap.Graph()); len(got) != len(histories[e]) {
			t.Fatalf("epoch %d has %d edges, want %d", e, len(got), len(histories[e]))
		}
	}

	// Pin the oldest retained snapshot: it (and everything behind it in
	// the window) must survive further publishes until unpinned.
	pinned, _ := sg.SnapshotAt(3)
	pinned.pin()
	for _, e := range adds[:3] {
		if _, _, err := sg.Mutate(bigraph.Delta{Del: [][2]int{e}}); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := sg.SnapshotAt(3); !ok {
		t.Fatal("pinned epoch 3 was trimmed")
	}
	if sg.Retained() != 6 {
		t.Fatalf("window grew to %d, want 6 (pin blocks trimming)", sg.Retained())
	}
	pinned.unpin()
	if _, _, err := sg.Mutate(bigraph.Delta{Add: [][2]int{{2, 0}}}); err != nil {
		t.Fatal(err)
	}
	if _, ok := sg.SnapshotAt(3); ok {
		t.Fatal("epoch 3 still resolvable after unpin and publish")
	}
	if sg.Retained() != 3 {
		t.Fatalf("window is %d after unpin, want 3", sg.Retained())
	}
}

// --- HTTP layer: export, historical solves, restart ---------------------

// TestExportAndHistoricalSolve drives the HTTP API: mutate a graph,
// solve it at a retained historical epoch, export both endpoints of the
// window, and re-upload an export round-trip.
func TestExportAndHistoricalSolve(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2, RetainEpochs: 4})
	putGraph(t, ts, "k33", k33, "")

	// Epoch 1 removes one edge: K3,3 minus an edge still has a balanced
	// biclique of size 2, not 3.
	resp, data := do(t, http.MethodPost, ts.URL+"/graphs/k33/edges", strings.NewReader(`{"del":[[2,2]]}`))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mutate: %d %s", resp.StatusCode, data)
	}

	// Historical solve at epoch 0 must see the intact K3,3.
	resp, data = do(t, http.MethodPost, ts.URL+"/graphs/k33/solve?epoch=0", strings.NewReader(`{}`))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve epoch 0: %d %s", resp.StatusCode, data)
	}
	j := decode[JobInfo](t, data)
	if j.Result == nil || j.Result.Size != 3 || j.Result.Epoch != 0 {
		t.Fatalf("epoch-0 solve %+v", j.Result)
	}
	resp, data = do(t, http.MethodPost, ts.URL+"/graphs/k33/solve", strings.NewReader(`{}`))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve current: %d %s", resp.StatusCode, data)
	}
	j = decode[JobInfo](t, data)
	if j.Result == nil || j.Result.Epoch != 1 {
		t.Fatalf("current solve %+v", j.Result)
	}

	// Export epoch 0 as edgelist and re-upload: bit-identical structure.
	resp, data = do(t, http.MethodGet, ts.URL+"/graphs/k33/export?epoch=0&format=edgelist", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("export epoch 0: %d %s", resp.StatusCode, data)
	}
	if got := resp.Header.Get("X-Graph-Epoch"); got != "0" {
		t.Fatalf("X-Graph-Epoch = %q, want 0", got)
	}
	info := putGraph(t, ts, "copy", string(data), "")
	if info.Edges != 9 {
		t.Fatalf("re-uploaded export has %d edges, want 9", info.Edges)
	}

	// Default export (KONECT) serves the current epoch.
	resp, data = do(t, http.MethodGet, ts.URL+"/graphs/k33/export", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("export current: %d %s", resp.StatusCode, data)
	}
	if got := resp.Header.Get("X-Graph-Epoch"); got != "1" {
		t.Fatalf("X-Graph-Epoch = %q, want 1", got)
	}
	if !strings.Contains(string(data), "% 8 3 3") {
		t.Fatalf("KONECT export header missing, got %q", string(data[:min(len(data), 40)]))
	}

	// Out-of-window and malformed epochs.
	resp, _ = do(t, http.MethodGet, ts.URL+"/graphs/k33/export?epoch=99", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("export epoch 99: %d, want 404", resp.StatusCode)
	}
	resp, _ = do(t, http.MethodGet, ts.URL+"/graphs/k33/export?epoch=banana", nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("export epoch banana: %d, want 400", resp.StatusCode)
	}
	resp, _ = do(t, http.MethodPost, ts.URL+"/graphs/k33/solve?epoch=99", strings.NewReader(`{}`))
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("solve epoch 99: %d, want 404", resp.StatusCode)
	}
}

// TestServerRestartRecoversState restarts a durable server end to end:
// the second instance must serve the same graphs at the same epochs with
// the same optimum, without re-uploading anything.
func TestServerRestartRecoversState(t *testing.T) {
	dataDir := t.TempDir()
	opt := Options{Workers: 2, DataDir: dataDir, WALSync: "always", RetainEpochs: 4, WarmRecovery: true}

	srv1, ts1 := newTestServer(t, opt)
	putGraph(t, ts1, "k33", k33, "")
	resp, data := do(t, http.MethodPost, ts1.URL+"/graphs/k33/edges", strings.NewReader(`{"del":[[2,2]]}`))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mutate: %d %s", resp.StatusCode, data)
	}
	j1 := solveSync(t, ts1, "k33", "")
	ts1.Close()
	srv1.Close()

	srv2, ts2 := newTestServer(t, opt)
	rs := srv2.RecoveredStats()
	if rs.Graphs != 1 || rs.Deltas != 1 {
		t.Fatalf("recovery stats %+v, want 1 graph, 1 delta", rs)
	}
	j2 := solveSync(t, ts2, "k33", "")
	if j1.Result == nil || j2.Result == nil {
		t.Fatalf("missing results: %+v / %+v", j1, j2)
	}
	if j2.Result.Size != j1.Result.Size || j2.Result.Epoch != j1.Result.Epoch {
		t.Fatalf("after restart solve = (size %d, epoch %d), before = (size %d, epoch %d)",
			j2.Result.Size, j2.Result.Epoch, j1.Result.Size, j1.Result.Epoch)
	}
	// Epoch 0 (pre-mutation) survived into the retention window too.
	resp, data = do(t, http.MethodPost, ts2.URL+"/graphs/k33/solve?epoch=0", strings.NewReader(`{}`))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("historical solve after restart: %d %s", resp.StatusCode, data)
	}
	if j := decode[JobInfo](t, data); j.Result == nil || j.Result.Size != 3 {
		t.Fatalf("epoch-0 solve after restart %+v", j.Result)
	}
}
