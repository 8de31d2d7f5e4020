// Package server is the serving layer of the engine: a named store of
// mutable, versioned graphs with cached reduce-and-conquer plans, a
// bounded job scheduler running solves on per-job execution contexts,
// and the HTTP JSON handlers that cmd/mbbserved exposes. The pipeline
// per query is
//
//	store (snapshot chain) → cached plan (τ, reduction, components) →
//	scheduler (bounded workers) → core.Exec (budget, cancellation)
//
// so a long-running daemon pays for parsing and reduction once per graph
// version instead of once per request. Mutations (POST/DELETE
// /graphs/{name}/edges) publish a new immutable snapshot with a bumped
// epoch; jobs pin the snapshot current at submission, so a solve never
// observes a half-applied batch and its result is exact for the epoch it
// reports.
package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bigraph"
	"repro/internal/wal"
	"repro/mbb"
)

// liveSnapshots counts snapshots that are still reachable: published
// versions plus historical ones pinned by in-flight jobs. Incremented
// at creation, decremented by a GC cleanup, it is the leak gauge the
// soak harness (and /metrics) watch — after a drain and a GC it must
// fall back to one per stored graph.
var liveSnapshots atomic.Int64

// trackSnapshot registers sn with the leak gauge.
func trackSnapshot(sn *Snapshot) *Snapshot {
	liveSnapshots.Add(1)
	runtime.AddCleanup(sn, func(struct{}) { liveSnapshots.Add(-1) }, struct{}{})
	return sn
}

// LiveSnapshots reports how many snapshots the GC still sees reachable
// (an upper bound refreshed by collection, not an instantaneous count).
func LiveSnapshots() int64 { return liveSnapshots.Load() }

// GraphFormat selects an upload parser.
type GraphFormat string

const (
	// FormatEdgeList is the repo's text edge-list format ("nL nR m"
	// header, 0-based "l r" lines) parsed by bigraph.Read.
	FormatEdgeList GraphFormat = "edgelist"
	// FormatKONECT is the KONECT out.* format (1-based ids, optional
	// "% m nL nR" size hint) parsed by bigraph.ReadKONECT.
	FormatKONECT GraphFormat = "konect"
)

// ParseFormat resolves a ?format= value; the empty string means edgelist.
func ParseFormat(s string) (GraphFormat, error) {
	switch strings.ToLower(s) {
	case "", "edgelist", "edge-list", "text":
		return FormatEdgeList, nil
	case "konect", "out":
		return FormatKONECT, nil
	}
	return "", fmt.Errorf("unknown graph format %q (want edgelist or konect)", s)
}

// Snapshot is one immutable version of a stored graph: the parsed graph,
// its epoch, and the lazily built (or inherited) plan for exactly this
// version. Jobs hold the Snapshot they were submitted against, so
// mutations publishing newer snapshots never disturb a solve in flight.
type Snapshot struct {
	sg    *StoredGraph
	g     *bigraph.Graph
	epoch uint64
	at    time.Time // when this version was published

	// pins counts jobs currently solving against this snapshot. A pinned
	// snapshot is never trimmed out of the retention window, so
	// ?epoch=E keeps resolving for every epoch under active solve.
	pins atomic.Int64

	planOnce sync.Once
	// planVal publishes the build outcome atomically: concurrent readers
	// (Info, from the graph/stats handlers) either see nil — build not
	// finished — or the complete outcome, never a half-written pair.
	planVal atomic.Pointer[planOutcome]
}

// planOutcome is the immutable result of one plan build, repair or
// inheritance. source records how this snapshot got its plan ("built":
// a full planner run; "repaired": bounded local repair across an
// insertion batch; "inherited": carried across a deletion-only batch
// unchanged) and nanos the wall time this snapshot itself paid for it —
// an inherited plan no longer reports its predecessor's build time as
// its own.
type planOutcome struct {
	plan   *mbb.Plan
	err    error
	source string
	nanos  int64
}

// Graph returns this snapshot's parsed graph.
func (sn *Snapshot) Graph() *bigraph.Graph { return sn.g }

// Epoch returns this snapshot's version counter (0 for the upload).
func (sn *Snapshot) Epoch() uint64 { return sn.epoch }

// pin marks a job as solving against this snapshot; unpin releases it.
// The retention trimmer skips pinned snapshots.
func (sn *Snapshot) pin()   { sn.pins.Add(1) }
func (sn *Snapshot) unpin() { sn.pins.Add(-1) }

// Plan returns this snapshot's reduce-and-conquer plan, building it on
// first use; built reports whether this call performed a build (false
// means a cache hit, including plans inherited across a mutation via
// ApplyDelta). The build runs detached from any request context: a
// client that gives up must not poison the cache for everyone after it.
func (sn *Snapshot) Plan() (plan *mbb.Plan, built bool, err error) {
	sn.planOnce.Do(func() {
		built = true
		start := time.Now()
		sn.sg.planBuilds.Add(1)
		sn.sg.st.counters.planBuilds.Add(1)
		p, perr := mbb.PlanContextEpoch(context.Background(), sn.g, sn.epoch)
		sn.planVal.Store(&planOutcome{plan: p, err: perr, source: "built", nanos: int64(time.Since(start))})
	})
	out := sn.planVal.Load() // non-nil: Do returns only after the outcome stored it
	if out.err == nil && !built {
		sn.sg.planHits.Add(1)
		sn.sg.st.counters.planHits.Add(1)
	}
	return out.plan, built, out.err
}

// StoredGraph is one named graph as a chain of immutable snapshots. The
// current snapshot is read lock-free; mutations serialize on mu and
// publish a successor with epoch+1, carrying the cached plan across when
// mbb.Plan.ApplyDelta proves the delta cannot invalidate it.
type StoredGraph struct {
	name string
	st   *Store // owning store
	// gen is the graph's generation id, unique across the store's life
	// (including recoveries). Every WAL record carries it, so replay can
	// tell a delta for this incarnation of the name from one addressed
	// to a deleted or replaced predecessor.
	gen uint64

	mu  sync.Mutex // serializes mutations (epoch transitions)
	cur atomic.Pointer[Snapshot]

	// retained is the retention window: the most recent snapshots in
	// ascending, contiguous epoch order, newest last (always containing
	// cur). Historical ?epoch=E solves resolve against it; publish trims
	// it to the store's window, never evicting a pinned snapshot.
	retMu    sync.RWMutex
	retained []*Snapshot

	mutations   atomic.Int64 // effective mutations (epoch bumps)
	planBuilds  atomic.Int64 // full planner runs across all snapshots
	planHits    atomic.Int64 // solves that reused an already-present plan
	planReuses  atomic.Int64 // mutations that carried the plan across unchanged
	planRepairs atomic.Int64 // mutations absorbed by bounded local repair
}

// storeCounters aggregates the per-graph counters over the store's
// lifetime. Prometheus counters must never go backwards, and summing
// GraphInfo at scrape time would: deleting a graph takes its history
// with it. The same events bump both the per-graph atomics (the graph's
// own story) and these (the fleet's).
type storeCounters struct {
	mutations   atomic.Int64
	planBuilds  atomic.Int64
	planHits    atomic.Int64
	planReuses  atomic.Int64
	planRepairs atomic.Int64
}

// StoreStats is the store-lifetime counter snapshot for /metrics.
type StoreStats struct {
	Mutations   int64
	PlanBuilds  int64
	PlanHits    int64
	PlanReuses  int64
	PlanRepairs int64
}

// Name returns the store key.
func (sg *StoredGraph) Name() string { return sg.name }

// Snapshot returns the current (latest) snapshot.
func (sg *StoredGraph) Snapshot() *Snapshot { return sg.cur.Load() }

// Graph returns the current snapshot's parsed graph.
func (sg *StoredGraph) Graph() *bigraph.Graph { return sg.Snapshot().g }

// Epoch returns the current snapshot's epoch.
func (sg *StoredGraph) Epoch() uint64 { return sg.Snapshot().epoch }

// PlanBuilds reports how many full planner runs the graph has paid for
// across all its versions — the amortization counter the e2e smoke
// asserts (it stays ≤ 1 however many solves ran, until a mutation that
// cannot inherit the plan forces one more).
func (sg *StoredGraph) PlanBuilds() int64 { return sg.planBuilds.Load() }

// Generation returns the graph's WAL generation id (0 outside a
// WAL-backed store).
func (sg *StoredGraph) Generation() uint64 { return sg.gen }

// publish makes snap the current snapshot and appends it to the
// retention window, trimming the oldest unpinned snapshots beyond the
// window. Callers serialize via sg.mu (or own a graph not yet in the
// store).
func (sg *StoredGraph) publish(snap *Snapshot) {
	sg.cur.Store(snap)
	window := sg.st.retain
	sg.retMu.Lock()
	sg.retained = append(sg.retained, snap)
	drop := 0
	for len(sg.retained)-drop > window && sg.retained[drop].pins.Load() == 0 {
		drop++
	}
	if drop > 0 {
		copy(sg.retained, sg.retained[drop:])
		for i := len(sg.retained) - drop; i < len(sg.retained); i++ {
			sg.retained[i] = nil // release the reference for the GC
		}
		sg.retained = sg.retained[:len(sg.retained)-drop]
	}
	sg.retMu.Unlock()
}

// SnapshotAt resolves an epoch within the retention window (the current
// epoch always resolves). It reports false for epochs that were never
// published or have been compacted away.
func (sg *StoredGraph) SnapshotAt(epoch uint64) (*Snapshot, bool) {
	if cur := sg.cur.Load(); cur.epoch == epoch {
		return cur, true
	}
	sg.retMu.RLock()
	defer sg.retMu.RUnlock()
	if len(sg.retained) == 0 {
		return nil, false
	}
	lo := sg.retained[0].epoch
	if epoch < lo || epoch > sg.retained[len(sg.retained)-1].epoch {
		return nil, false
	}
	// Retained epochs are contiguous, so the lookup is an index.
	return sg.retained[epoch-lo], true
}

// RetainedRange reports the oldest and newest retained epochs and the
// window's size (0 means only bookkeeping has not run yet; the current
// snapshot still resolves).
func (sg *StoredGraph) RetainedRange() (lo, hi uint64, n int) {
	sg.retMu.RLock()
	defer sg.retMu.RUnlock()
	if len(sg.retained) == 0 {
		cur := sg.cur.Load()
		return cur.epoch, cur.epoch, 1
	}
	return sg.retained[0].epoch, sg.retained[len(sg.retained)-1].epoch, len(sg.retained)
}

// Retained reports how many snapshots the retention window holds.
func (sg *StoredGraph) Retained() int {
	sg.retMu.RLock()
	defer sg.retMu.RUnlock()
	return len(sg.retained)
}

// MutationInfo is the JSON response to an edge-mutation request.
type MutationInfo struct {
	Name    string `json:"name"`
	Epoch   uint64 `json:"epoch"`
	Added   int    `json:"added"`   // edges actually inserted
	Removed int    `json:"removed"` // edges actually deleted
	NL      int    `json:"nl"`
	NR      int    `json:"nr"`
	Edges   int    `json:"edges"`
	// Plan reports what happened to the cached plan: "reused" (carried
	// across unchanged by ApplyDelta), "repaired" (insertions absorbed
	// by bounded local repair — still no full planner run), "rebuilding"
	// (invalidated; a background rebuild was scheduled), "unchanged" (a
	// no-op batch left the snapshot and its plan untouched), or "none"
	// (no plan was built yet).
	Plan string `json:"plan"`
}

// Mutate applies d atomically: the current snapshot's graph gets the
// delta (copy-on-write — in-flight jobs keep their pinned snapshots),
// and the successor snapshot is published with epoch+1. When the current
// snapshot has a built plan, mbb.Plan.ApplyDelta tries to carry it
// across (deletion-only deltas that spare the heuristic witness);
// otherwise a background rebuild warms the new snapshot's plan while
// stale-but-exact solves continue on prior snapshots. A delta that
// changes nothing keeps the current snapshot and epoch. Returns the
// snapshot the store now serves.
func (sg *StoredGraph) Mutate(d bigraph.Delta) (*Snapshot, MutationInfo, error) {
	sg.mu.Lock()
	defer sg.mu.Unlock()
	old := sg.cur.Load()
	g2, eff, err := old.g.Apply(d)
	if err != nil {
		return nil, MutationInfo{}, err
	}
	info := MutationInfo{
		Name: sg.name, Epoch: old.epoch,
		Added: len(eff.Add), Removed: len(eff.Del),
		NL: old.g.NL(), NR: old.g.NR(), Edges: old.g.NumEdges(),
		Plan: "none",
	}
	if eff.Empty() {
		// Nothing changed: keep the snapshot (and its plan) as is, so
		// no-op batches cost no epoch bump, no cache invalidation — and
		// no reuse accounting, since nothing was carried anywhere.
		if out := old.planVal.Load(); out != nil && out.err == nil {
			info.Plan = "unchanged"
		}
		return old, info, nil
	}
	// Durability before visibility: the effective delta must be in the
	// WAL before any reader can observe the new epoch. A failed append
	// fails the mutation — the store keeps serving the old snapshot.
	if sg.st.wal != nil {
		payload, err := eff.AppendBinary(nil)
		if err != nil {
			return nil, MutationInfo{}, err
		}
		if err := sg.st.wal.Append(wal.Record{
			Type: wal.RecDelta, Name: sg.name, Gen: sg.gen, Epoch: old.epoch + 1, Payload: payload,
		}); err != nil {
			return nil, MutationInfo{}, fmt.Errorf("wal append: %w", err)
		}
	}
	snap, plan := sg.publishNext(old, g2, eff)
	info.Plan = plan
	info.Epoch = snap.epoch
	info.Edges = g2.NumEdges()
	if plan == "rebuilding" {
		// The previous version had a plan and the new one cannot inherit
		// it. Rebuild in the background so in-flight traffic keeps solving
		// on prior snapshots while the next query finds the plan warm (or
		// at worst joins the build through the sync.Once).
		go snap.Plan()
	}
	sg.st.noteAppend()
	return snap, info, nil
}

// publishNext publishes g2 — old's graph with the effective delta eff
// applied — as the next epoch, carrying old's plan across when
// maintenance allows, and returns the new snapshot with the
// MutationInfo.Plan word for what happened to the plan. Callers hold
// sg.mu.
func (sg *StoredGraph) publishNext(old *Snapshot, g2 *bigraph.Graph, eff bigraph.Delta) (*Snapshot, string) {
	snap := trackSnapshot(&Snapshot{sg: sg, g: g2, epoch: old.epoch + 1, at: time.Now()})
	plan := carryPlan(sg, old, snap, eff)
	sg.publish(snap)
	sg.mutations.Add(1)
	sg.st.counters.mutations.Add(1)
	return snap, plan
}

// carryPlan tries to move old's built plan onto snap across the
// effective delta eff via mbb.Plan.ApplyDelta, pre-populating snap's
// plan slot (and consuming its Once) when maintenance succeeds. It
// returns the MutationInfo.Plan word: "none" when old has no plan,
// "rebuilding" when the delta invalidated it, else "repaired" or
// "reused".
func carryPlan(sg *StoredGraph, old, snap *Snapshot, eff bigraph.Delta) string {
	out := old.planVal.Load()
	if out == nil || out.err != nil {
		return "none"
	}
	start := time.Now()
	p2, ok := out.plan.ApplyDelta(snap.g, eff, snap.epoch)
	if !ok {
		return "rebuilding"
	}
	// Pre-populate before publishing: consume the Once so Plan() never
	// rebuilds what the maintenance path already proved.
	source, word := "inherited", "reused"
	if p2.Repairs() > out.plan.Repairs() {
		source, word = "repaired", "repaired"
		sg.planRepairs.Add(1)
		sg.st.counters.planRepairs.Add(1)
	} else {
		sg.planReuses.Add(1)
		sg.st.counters.planReuses.Add(1)
	}
	snap.planVal.Store(&planOutcome{plan: p2, source: source, nanos: int64(time.Since(start))})
	snap.planOnce.Do(func() {})
	return word
}

// GraphInfo is the JSON view of a stored graph's current snapshot.
type GraphInfo struct {
	Name        string  `json:"name"`
	NL          int     `json:"nl"`
	NR          int     `json:"nr"`
	Edges       int     `json:"edges"`
	Density     float64 `json:"density"`
	Epoch       uint64  `json:"epoch"`
	Mutations   int64   `json:"mutations"`
	LoadedAt    string  `json:"loaded_at"` // when the current snapshot was published
	PlanCached  bool    `json:"plan_cached"`
	PlanBuilds  int64   `json:"plan_builds"`
	PlanHits    int64   `json:"plan_hits"`
	PlanReuses  int64   `json:"plan_reuses"`
	PlanRepairs int64   `json:"plan_repairs"`
	// PlanSource says how the current snapshot got its plan ("built",
	// "repaired", "inherited"); PlanMillis is the wall time this
	// snapshot itself spent obtaining it — a snapshot that inherited its
	// plan across a mutation no longer reports the predecessor's build
	// time as its own.
	PlanSource string  `json:"plan_source,omitempty"`
	PlanMillis float64 `json:"plan_millis,omitempty"`
	SeedTau    int     `json:"tau,omitempty"`
	Peeled     int     `json:"peeled,omitempty"`
	Components int     `json:"components,omitempty"`
}

// Info returns the JSON view of the current snapshot, including the
// cached plan's statistics once it exists.
func (sg *StoredGraph) Info() GraphInfo {
	sn := sg.Snapshot()
	info := GraphInfo{
		Name:        sg.name,
		NL:          sn.g.NL(),
		NR:          sn.g.NR(),
		Edges:       sn.g.NumEdges(),
		Density:     sn.g.Density(),
		Epoch:       sn.epoch,
		Mutations:   sg.mutations.Load(),
		LoadedAt:    sn.at.UTC().Format(time.RFC3339),
		PlanBuilds:  sg.planBuilds.Load(),
		PlanHits:    sg.planHits.Load(),
		PlanReuses:  sg.planReuses.Load(),
		PlanRepairs: sg.planRepairs.Load(),
	}
	if out := sn.planVal.Load(); out != nil {
		info.PlanSource = out.source
		info.PlanMillis = float64(out.nanos) / 1e6
		if out.err == nil {
			info.PlanCached = true
			info.SeedTau = out.plan.SeedTau()
			info.Peeled = out.plan.Peeled()
			info.Components = out.plan.Components()
		}
	}
	return info
}

// nameRe bounds graph names to URL-safe tokens.
var nameRe = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9._-]{0,127}$`)

// Store is the named graph store. All methods are safe for concurrent
// use; snapshots are immutable once published, so readers never block
// solvers or mutators.
type Store struct {
	mu        sync.RWMutex
	graphs    map[string]*StoredGraph
	maxVerts  int // per-graph vertex cap for untrusted uploads, 0 = unlimited
	maxGraphs int // store capacity, 0 = unlimited
	counters  storeCounters

	// Durability. wal is nil for a volatile store; gen issues generation
	// ids (raised past every generation a record carried); retain is the
	// per-graph retention window (min 1).
	wal    *wal.Log
	gen    atomic.Uint64
	retain int
	// tombs maps each deleted name to the highest generation a Delete
	// record named, so a checkpoint snapshot logged after the delete
	// cannot resurrect it (see applyRecord). An entry lives until a
	// record installs the name again. Guarded by mu.
	tombs map[string]uint64

	// Automatic checkpointing: after ckptEvery WAL appends a background
	// single-flight checkpoint compacts the log.
	ckptEvery int64
	ckptCount atomic.Int64
	ckptBusy  atomic.Bool
	ckptWG    sync.WaitGroup
}

// NewStore returns an empty store. maxVerts caps the vertex count of any
// parsed upload (0 = unlimited); maxGraphs caps how many graphs the
// store holds (0 = unlimited).
func NewStore(maxVerts, maxGraphs int) *Store {
	return &Store{
		graphs: make(map[string]*StoredGraph), tombs: make(map[string]uint64),
		maxVerts: maxVerts, maxGraphs: maxGraphs, retain: 1,
	}
}

// SetRetainEpochs sets the per-graph snapshot retention window (minimum
// 1: the current snapshot). Call before serving traffic.
func (s *Store) SetRetainEpochs(n int) {
	if n < 1 {
		n = 1
	}
	s.retain = n
}

// SetCheckpointEvery makes the store checkpoint-and-compact its WAL in
// the background after every n appended records (0 disables automatic
// checkpoints). Call before serving traffic.
func (s *Store) SetCheckpointEvery(n int) { s.ckptEvery = int64(n) }

// WAL returns the attached log, or nil for a volatile store.
func (s *Store) WAL() *wal.Log { return s.wal }

// Stats returns the store-lifetime aggregates (monotone across graph
// deletions, unlike summing List()).
func (s *Store) Stats() StoreStats {
	return StoreStats{
		Mutations:   s.counters.mutations.Load(),
		PlanBuilds:  s.counters.planBuilds.Load(),
		PlanHits:    s.counters.planHits.Load(),
		PlanReuses:  s.counters.planReuses.Load(),
		PlanRepairs: s.counters.planRepairs.Load(),
	}
}

// Parse decodes r in the given format, honouring the store's vertex cap.
func (s *Store) Parse(r io.Reader, format GraphFormat) (*bigraph.Graph, error) {
	switch format {
	case FormatKONECT:
		return bigraph.ReadKONECTLimited(r, s.maxVerts)
	default:
		return bigraph.ReadLimited(r, s.maxVerts)
	}
}

// Put stores g under name at epoch 0, replacing any previous graph of
// that name (and its snapshot chain). It rejects invalid names and a
// full store.
func (s *Store) Put(name string, g *bigraph.Graph) (*StoredGraph, error) {
	if !nameRe.MatchString(name) {
		return nil, fmt.Errorf("invalid graph name %q (want [A-Za-z0-9._-], max 128 chars)", name)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, replacing := s.graphs[name]; !replacing && s.maxGraphs > 0 && len(s.graphs) >= s.maxGraphs {
		return nil, fmt.Errorf("graph store is full (%d graphs)", s.maxGraphs)
	}
	// Issuing the generation and appending under s.mu logs a name's
	// Puts and Deletes in generation order; the rare upload fsync
	// briefly stalling reads is an accepted cost.
	sg := s.newGraph(name, s.gen.Add(1), 0, g)
	if s.wal != nil {
		if err := s.wal.Append(wal.Record{
			Type: wal.RecPut, Name: name, Gen: sg.gen, Payload: g.AppendBinary(nil),
		}); err != nil {
			return nil, fmt.Errorf("wal append: %w", err)
		}
	}
	s.graphs[name] = sg
	s.noteAppend()
	return sg, nil
}

// newGraph returns a graph of the store named name, with generation
// gen, holding g as its first snapshot at epoch.
func (s *Store) newGraph(name string, gen, epoch uint64, g *bigraph.Graph) *StoredGraph {
	sg := &StoredGraph{name: name, st: s, gen: gen}
	sg.publish(trackSnapshot(&Snapshot{sg: sg, g: g, epoch: epoch, at: time.Now()}))
	return sg
}

// Get returns the named graph.
func (s *Store) Get(name string) (*StoredGraph, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	sg, ok := s.graphs[name]
	return sg, ok
}

// Delete removes the named graph. Jobs already holding a Snapshot keep
// solving against it; the memory is reclaimed once they finish. The
// boolean reports whether the graph existed; the error is non-nil only
// when the WAL append failed (the graph is then kept).
func (s *Store) Delete(name string) (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sg, ok := s.graphs[name]
	if !ok {
		return false, nil
	}
	if s.wal != nil {
		if err := s.wal.Append(wal.Record{Type: wal.RecDelete, Name: name, Gen: sg.gen}); err != nil {
			return true, fmt.Errorf("wal append: %w", err)
		}
	}
	delete(s.graphs, name)
	s.noteAppend()
	return true, nil
}

// List returns every stored graph's info, sorted by name.
func (s *Store) List() []GraphInfo {
	s.mu.RLock()
	sgs := make([]*StoredGraph, 0, len(s.graphs))
	for _, sg := range s.graphs {
		sgs = append(sgs, sg)
	}
	s.mu.RUnlock()
	sort.Slice(sgs, func(i, j int) bool { return sgs[i].name < sgs[j].name })
	out := make([]GraphInfo, len(sgs))
	for i, sg := range sgs {
		out[i] = sg.Info()
	}
	return out
}

// Len returns how many graphs are stored.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.graphs)
}

// LoadError records one file LoadDir could not turn into a stored graph.
type LoadError struct {
	File string
	Err  error
}

func (e LoadError) Error() string { return fmt.Sprintf("%s: %v", e.File, e.Err) }

// LoadReport summarizes a LoadDir pass: how many graphs loaded and which
// files were skipped, with why.
type LoadReport struct {
	Loaded int
	Failed []LoadError
}

// LoadDir preloads every regular file in dir into the store: files named
// *.konect or out.* parse as KONECT, everything else as the text
// edge-list format. The graph name is the file's base name with the
// extension stripped (out.foo becomes foo). Hidden files (dotfiles such
// as .gitignore or .DS_Store) are skipped — filepath.Ext would strip
// their whole name to the empty string, which can never be a valid graph
// name and used to abort the entire preload. An unreadable or unparsable
// file is logged, recorded in the report and skipped — one stray file in
// a data directory must not take every other graph down with it. The
// error is non-nil only when the directory itself cannot be read.
func (s *Store) LoadDir(dir string) (LoadReport, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return LoadReport{}, err
	}
	var rep LoadReport
	fail := func(path string, err error) {
		log.Printf("server: preload %s: %v (skipped)", path, err)
		rep.Failed = append(rep.Failed, LoadError{File: path, Err: err})
	}
	for _, e := range entries {
		if e.IsDir() || strings.HasPrefix(e.Name(), ".") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		format := FormatEdgeList
		name := e.Name()
		switch {
		case strings.HasPrefix(name, "out."):
			format = FormatKONECT
			name = strings.TrimPrefix(name, "out.")
		case strings.HasSuffix(name, ".konect"):
			format = FormatKONECT
			name = strings.TrimSuffix(name, ".konect")
		default:
			name = strings.TrimSuffix(name, filepath.Ext(name))
		}
		f, err := os.Open(path)
		if err != nil {
			fail(path, err)
			continue
		}
		g, err := s.Parse(f, format)
		f.Close()
		if err != nil {
			fail(path, err)
			continue
		}
		if _, err := s.Put(name, g); err != nil {
			fail(path, err)
			continue
		}
		rep.Loaded++
	}
	return rep, nil
}

// Checkpoint serializes every stored graph's current snapshot into a
// fresh WAL segment and compacts the history behind it. Each snapshot
// record is appended while holding that graph's mutation lock, which
// pins the invariant replay relies on: any delta record after a graph's
// snapshot record has a higher epoch than the snapshot. Mutations on
// other graphs interleave freely. No-op without a WAL.
func (s *Store) Checkpoint() error {
	if s.wal == nil {
		return nil
	}
	return s.wal.Checkpoint(func(app func(wal.Record) error) error {
		s.mu.RLock()
		sgs := make([]*StoredGraph, 0, len(s.graphs))
		for _, sg := range s.graphs {
			sgs = append(sgs, sg)
		}
		s.mu.RUnlock()
		sort.Slice(sgs, func(i, j int) bool { return sgs[i].name < sgs[j].name })
		for _, sg := range sgs {
			sg.mu.Lock()
			cur := sg.cur.Load()
			err := app(wal.Record{
				Type: wal.RecGraphSnap, Name: sg.name, Gen: sg.gen,
				Epoch: cur.epoch, Payload: cur.g.AppendBinary(nil),
			})
			sg.mu.Unlock()
			if err != nil {
				return err
			}
		}
		return nil
	})
}

// noteAppend ticks the automatic-checkpoint counter and kicks off a
// single-flight background checkpoint when it reaches the threshold.
func (s *Store) noteAppend() {
	if s.wal == nil || s.ckptEvery <= 0 {
		return
	}
	if s.ckptCount.Add(1) < s.ckptEvery {
		return
	}
	if !s.ckptBusy.CompareAndSwap(false, true) {
		return
	}
	s.ckptCount.Store(0)
	s.ckptWG.Add(1)
	go func() {
		defer s.ckptWG.Done()
		defer s.ckptBusy.Store(false)
		if err := s.Checkpoint(); err != nil && !errors.Is(err, wal.ErrClosed) {
			log.Printf("server: background checkpoint: %v", err)
		}
	}()
}

// CloseWAL waits for any background checkpoint and closes the log (a
// final fsync included). The store stays readable; further mutations
// fail their WAL append.
func (s *Store) CloseWAL() error {
	if s.wal == nil {
		return nil
	}
	s.ckptWG.Wait()
	return s.wal.Close()
}

// RetainedSnapshots sums the retention windows across stored graphs —
// the denominator for the soak harness's snapshot-leak gauge.
func (s *Store) RetainedSnapshots() int64 {
	s.mu.RLock()
	sgs := make([]*StoredGraph, 0, len(s.graphs))
	for _, sg := range s.graphs {
		sgs = append(sgs, sg)
	}
	s.mu.RUnlock()
	var n int64
	for _, sg := range sgs {
		n += int64(sg.Retained())
	}
	return n
}
