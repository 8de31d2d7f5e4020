package server

import (
	"errors"
	"fmt"

	"repro/internal/bigraph"
	"repro/internal/wal"
)

// RecoverStats reports what a WAL recovery reconstructed.
type RecoverStats struct {
	wal.ReplayStats
	Graphs        int // graphs live after replay
	Puts          int // full uploads replayed
	Deltas        int // mutations replayed through Graph.Apply
	Snaps         int // checkpoint snapshots that established state
	PlanWarmed    int // plans built eagerly during warm recovery
	PlansCarried  int // deltas whose plan was inherited or repaired in replay
	PlansRebuilt  int // deltas that invalidated the plan (left for lazy rebuild)
	SkippedStale  int // records ignored as older than reconstructed state
	TombstonedFor int // records ignored for deleted generations
}

// recordEffect is what applyRecord did with one WAL record.
type recordEffect uint8

const (
	effNone       recordEffect = iota // checkpoint barrier or delete
	effStale                          // older than the store's state: skipped
	effTombstoned                     // snapshot of a deleted generation: skipped
	effPut                            // upload installed at epoch 0
	effSnap                           // checkpoint snapshot installed at its epoch
	effDelta                          // delta published as the next epoch
)

// recordResult reports one applyRecord call: its effect, the snapshot
// an install or a delta published, and a delta's MutationInfo.Plan word.
type recordResult struct {
	effect recordEffect
	snap   *Snapshot
	plan   string
}

func (a recordResult) installed() bool { return a.effect == effPut || a.effect == effSnap }

// applyRecord folds one WAL record into the store. Crash recovery
// (OpenWAL) and replica apply (ApplyReplica) both run every record
// through it, so a replica that applies an owner's log ends where the
// owner's own recovery would. The rules (DESIGN.md §10 tabulates them):
//
//   - Every payload decodes before any state changes.
//   - A full-graph record (Put, or a checkpoint's GraphSnap) installs,
//     and drops the name's tombstone, unless the name holds a later
//     generation, or the same one at an equal or later epoch.
//   - A Delete tombstones its generation and removes the name if it
//     holds that generation or an older one. Checkpoint appends each
//     snapshot outside the store lock, so the snapshot of a deleted
//     graph can follow its Delete; the tombstone skips a GraphSnap at
//     or below it. A Put is logged before its own generation's Delete,
//     so a Put at or below a tombstone carries an id issued again (by
//     an owner restarted after compaction) and installs.
//   - A delta applies iff the name holds its generation at the epoch
//     just below it. A delta for an absent name or another generation
//     addresses a deleted or replaced incarnation, or history a later
//     snapshot already holds, and is skipped, as is one at or below the
//     current epoch. A delta further ahead is ErrReplicaGap; one that
//     changes nothing means the store diverged from the log.
//
// Deltas skip safely because, per graph, they are logged in epoch order
// (Mutate appends under sg.mu) and a checkpoint snapshot is logged under
// the same lock, so every later delta for that graph has a higher epoch.
func (s *Store) applyRecord(rec wal.Record) (recordResult, error) {
	switch rec.Type {
	case wal.RecCheckpointEnd:
		return recordResult{}, nil

	case wal.RecPut, wal.RecGraphSnap:
		g, err := bigraph.UnmarshalGraph(rec.Payload)
		if err != nil {
			return recordResult{}, err
		}
		s.mu.Lock()
		defer s.mu.Unlock()
		s.bumpGen(rec.Gen)
		if tg, ok := s.tombs[rec.Name]; ok && tg >= rec.Gen && rec.Type == wal.RecGraphSnap {
			return recordResult{effect: effTombstoned}, nil
		}
		if old, ok := s.graphs[rec.Name]; ok && (old.gen > rec.Gen || old.gen == rec.Gen && old.Epoch() >= rec.Epoch) {
			return recordResult{effect: effStale}, nil
		}
		delete(s.tombs, rec.Name)
		sg := s.newGraph(rec.Name, rec.Gen, rec.Epoch, g)
		s.graphs[rec.Name] = sg
		if rec.Type == wal.RecPut {
			return recordResult{effect: effPut, snap: sg.Snapshot()}, nil
		}
		return recordResult{effect: effSnap, snap: sg.Snapshot()}, nil

	case wal.RecDelete:
		s.mu.Lock()
		defer s.mu.Unlock()
		s.bumpGen(rec.Gen)
		s.tombs[rec.Name] = max(s.tombs[rec.Name], rec.Gen)
		if sg, ok := s.graphs[rec.Name]; ok && sg.gen <= rec.Gen {
			delete(s.graphs, rec.Name)
		}
		return recordResult{}, nil

	case wal.RecDelta:
		d, err := bigraph.UnmarshalDelta(rec.Payload)
		if err != nil {
			return recordResult{}, err
		}
		sg, ok := s.Get(rec.Name)
		if !ok || sg.gen != rec.Gen {
			return recordResult{effect: effStale}, nil
		}
		sg.mu.Lock()
		defer sg.mu.Unlock()
		old := sg.cur.Load()
		if rec.Epoch <= old.epoch {
			return recordResult{effect: effStale}, nil
		}
		if rec.Epoch != old.epoch+1 {
			return recordResult{}, fmt.Errorf("%w: graph at epoch %d, delta for %d", ErrReplicaGap, old.epoch, rec.Epoch)
		}
		g2, eff, err := old.g.Apply(d)
		if err != nil {
			return recordResult{}, err
		}
		if eff.Empty() {
			return recordResult{}, errors.New("logged delta had no effect: the store diverged from the log")
		}
		snap, plan := sg.publishNext(old, g2, eff)
		return recordResult{effect: effDelta, snap: snap, plan: plan}, nil

	default:
		return recordResult{}, fmt.Errorf("unhandled record type %d", rec.Type)
	}
}

// bumpGen raises the generation counter to at least gen, so no id the
// store issues later repeats one a record carried. Callers hold s.mu,
// as Put does when it issues an id.
func (s *Store) bumpGen(gen uint64) {
	if gen > s.gen.Load() {
		s.gen.Store(gen)
	}
}

// count tallies one replayed record.
func (st *RecoverStats) count(a recordResult) {
	switch a.effect {
	case effStale:
		st.SkippedStale++
	case effTombstoned:
		st.TombstonedFor++
	case effPut:
		st.Puts++
	case effSnap:
		st.Snaps++
	case effDelta:
		st.Deltas++
		switch a.plan {
		case "rebuilding":
			st.PlansRebuilt++
		case "reused", "repaired":
			st.PlansCarried++
		}
	}
}

// OpenWAL attaches a write-ahead log at dir to the store, replaying any
// durable history into it first through applyRecord: checkpoints and
// uploads re-parse through the binary codec, deltas re-apply through
// Graph.Apply and the plan-maintenance path, epochs land exactly where
// they were. When warm is set, each installed graph builds its plan
// before the next record replays, so the deltas after it repair the plan
// instead of starting cold; a plan a delta invalidates is left for the
// first solve to rebuild.
//
// Replay finishes before the first new record can be appended, and every
// graph the store already holds (there should be none) is untouched.
// After OpenWAL returns, Put/Mutate/Delete are durable per the log's
// sync policy, and Server.Close (via CloseWAL) must run to release it.
func (s *Store) OpenWAL(dir string, opt wal.Options, warm bool) (RecoverStats, error) {
	if s.wal != nil {
		return RecoverStats{}, errors.New("server: store already has a WAL")
	}
	var st RecoverStats
	l, rs, err := wal.Open(dir, opt, func(rec wal.Record) error {
		a, err := s.applyRecord(rec)
		if err != nil {
			return err
		}
		st.count(a)
		if warm && a.installed() {
			if _, _, err := a.snap.Plan(); err == nil {
				st.PlanWarmed++
			}
		}
		return nil
	})
	st.ReplayStats = rs
	if err != nil {
		return st, err
	}
	s.wal = l
	st.Graphs = s.Len()
	return st, nil
}
