package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"repro/internal/wal"
)

// replicateHeartbeatEvery is how often /replicate interleaves a
// heartbeat (the log's end position) between records, bounding how
// stale a replica's lag estimate can get.
const replicateHeartbeatEvery = 500 * time.Millisecond

// handleReplicate streams this worker's WAL to a replica: every record
// from the resume position (?pos=seg:off, default the oldest live
// byte) in append order, with heartbeats naming the log's end so the
// consumer can tell caught-up from behind. The stream is unbounded; it
// ends when the client disconnects, the server closes, or the blanket
// -request-timeout (if set) expires — replicas resume transparently
// from their last applied position.
//
// A resume position that compaction has dropped (or that belongs to a
// previous incarnation of the log) restarts from the oldest segment;
// the StreamStartHeader tells the consumer the position actually
// served, and the replay rules make re-delivery idempotent.
func (s *Server) handleReplicate(w http.ResponseWriter, r *http.Request) {
	l := s.store.WAL()
	if l == nil {
		writeError(w, http.StatusNotImplemented, "replication needs a durable store: start this worker with -data-dir")
		return
	}
	pos := l.StartPos()
	if q := r.URL.Query().Get("pos"); q != "" {
		p, err := wal.ParsePos(q)
		if err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
		// Clamp positions from a previous log incarnation (the data dir
		// was rebuilt, or the consumer outlived a compaction) back to
		// the oldest live byte.
		if !p.After(l.EndPos()) && !p.Before(l.StartPos()) {
			pos = p
		}
	}
	t := l.Tail(pos)
	defer t.Close()

	w.Header().Set(wal.StreamProtoHeader, strconv.Itoa(wal.StreamProtoVersion))
	w.Header().Set(wal.StreamStartHeader, pos.String())
	w.Header().Set("Content-Type", "application/octet-stream")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	flush := func() {
		if flusher != nil {
			flusher.Flush()
		}
	}

	s.metrics.replicateStreams.Add(1)
	defer s.metrics.replicateStreams.Add(-1)

	ctx := r.Context()
	var buf []byte
	nextHB := time.Now() // first heartbeat immediately: a caught-up replica learns so at once
	for {
		select {
		case <-s.closing:
			return
		default:
		}
		if !time.Now().Before(nextHB) {
			buf = wal.AppendStreamMsg(buf[:0], wal.StreamMsg{Kind: wal.StreamHeartbeat, Pos: l.EndPos()})
			if _, err := w.Write(buf); err != nil {
				return
			}
			flush()
			nextHB = time.Now().Add(replicateHeartbeatEvery)
		}
		rctx, cancel := context.WithDeadline(ctx, nextHB)
		rec, err := t.Next(rctx)
		cancel()
		switch {
		case err == nil:
			buf = wal.AppendStreamMsg(buf[:0], wal.StreamMsg{Kind: wal.StreamRecord, Pos: t.Pos(), Rec: rec})
			if _, werr := w.Write(buf); werr != nil {
				return
			}
			s.metrics.replicateRecords.Add(1)
			flush()
		case errors.Is(err, context.DeadlineExceeded) && ctx.Err() == nil:
			// Heartbeat due (the loop head sends it); keep tailing.
		default:
			// Client gone, server closing, or the log closed/corrupted.
			return
		}
	}
}

// ErrReplicaGap reports a delta record more than one epoch ahead of
// the incarnation it addresses: the log skipped state the store needs.
// A replica's remedy is a full resync — restart the stream from the
// owner's oldest segment, whose checkpoint head is complete state.
var ErrReplicaGap = errors.New("WAL record out of sequence")

// ApplyReplica folds one replicated WAL record into the store on a
// replica through applyRecord, the same rules crash recovery replays
// by: the owner's generation ids are preserved, and nothing is appended
// to this worker's own WAL (periodic local checkpoints still capture
// replicated graphs, which is what lets a durable replica restart warm
// and re-tail from where its checkpoint left it). A delta beyond the
// next epoch is ErrReplicaGap; any other error means the record cannot
// apply, and the store is left as it was.
//
// Every payload decodes through the versioned bigraph codec before any
// state changes, so a frame from a newer-versioned owner is rejected
// cleanly. When warm is set, installed graphs and deltas that
// invalidated the plan build their plans in the background.
func (s *Store) ApplyReplica(rec wal.Record, warm bool) error {
	a, err := s.applyRecord(rec)
	if err != nil {
		return fmt.Errorf("replicated %s of %q: %w", rec.Type, rec.Name, err)
	}
	if warm && (a.installed() || a.plan == "rebuilding") {
		go a.snap.Plan()
	}
	return nil
}
