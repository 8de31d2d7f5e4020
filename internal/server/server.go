package server

import (
	"context"
	"io"
	"log"
	"net/http"
	"runtime"
	"sync"
	"time"

	"repro/internal/wal"
)

// Options configures a Server. Zero values pick the defaults below.
type Options struct {
	// Workers is the solve worker pool size — the server-wide
	// concurrent-solve cap. Default: GOMAXPROCS.
	Workers int
	// QueueCap is the job queue depth — the admission bound beyond the
	// running solves. Default 256.
	QueueCap int
	// MaxUploadBytes caps a graph upload body. Default 64 MiB.
	MaxUploadBytes int64
	// MaxVertices caps the vertex count of any uploaded graph (parsing
	// rejects larger inputs before allocating). Default 10M; negative
	// means no cap below the int32 range of vertex ids.
	MaxVertices int
	// MaxGraphs caps the store size. Default 1024; negative means
	// unlimited.
	MaxGraphs int
	// DefaultTimeout fills a job's unset timeout. Default 30s; negative
	// means none (the MaxTimeout clamp still applies).
	DefaultTimeout time.Duration
	// MaxTimeout caps every job's timeout, including explicit "0"
	// (unlimited) requests. Default 10m; negative means no cap.
	MaxTimeout time.Duration
	// MaxJobWorkers clamps the per-job goroutine budget a request may
	// ask for. Default 4×GOMAXPROCS; negative means no cap.
	MaxJobWorkers int
	// StoreDir, when non-empty, is preloaded into the store at startup
	// (see Store.LoadDir). Unparsable files are logged and skipped.
	StoreDir string
	// DataDir, when non-empty, makes the store durable: a write-ahead
	// log under this directory records every upload, mutation and
	// delete, and New replays it before the server accepts traffic.
	DataDir string
	// WALSync is the append durability policy for DataDir: "always"
	// (default — group-commit fsync before a write returns), "interval"
	// (background fsync every WALSyncInterval) or "off".
	WALSync string
	// WALSyncInterval is the flush period under WALSync "interval".
	// Default 100ms.
	WALSyncInterval time.Duration
	// WALSegmentBytes is the segment rotation threshold. Default 64 MiB.
	WALSegmentBytes int64
	// CheckpointEvery checkpoints and compacts the WAL in the background
	// after this many appended records. Default 4096; negative disables
	// automatic checkpoints.
	CheckpointEvery int
	// RetainEpochs is the per-graph snapshot retention window: how many
	// trailing epochs stay resolvable for ?epoch=E solves and exports.
	// Default 1 (current only).
	RetainEpochs int
	// WarmRecovery builds each recovered graph's plan eagerly during
	// replay, so replayed deltas exercise the repair path and the first
	// solve after a restart finds the plan warm. Costs planner time at
	// boot.
	WarmRecovery bool
	// RequestTimeout bounds every request's context (the blanket
	// hygiene timeout, distinct from per-job solve budgets). Default 0:
	// disabled.
	RequestTimeout time.Duration
	// MaxReplicaLag bounds how far behind its owner's delta stream a
	// replica may be while still answering solves; beyond it, replica
	// solves 503 with Retry-After instead of silently serving a stale
	// epoch, and /readyz reports not ready. Only consulted when a
	// ClusterInfo is installed. Default 5s; negative means unbounded.
	MaxReplicaLag time.Duration
	// CancelWait bounds how long a synchronous solve handler waits for
	// its job after the client disconnected and the job was canceled. A
	// wedged solver then costs an abandoned-wait log line and counter
	// bump instead of a goroutine pinned forever. Default 30s; negative
	// means wait without bound (shutdown still unblocks the handler).
	CancelWait time.Duration
	// AccessLog receives structured access-log lines through the
	// non-blocking ring buffer; nil discards them (they are still
	// counted in /metrics).
	AccessLog io.Writer
	// AccessLogCap is the ring capacity in records. Default 4096.
	AccessLogCap int
	// EnablePprof mounts net/http/pprof under /debug/pprof/.
	EnablePprof bool
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.QueueCap <= 0 {
		o.QueueCap = 256
	}
	if o.MaxUploadBytes <= 0 {
		o.MaxUploadBytes = 64 << 20
	}
	if o.MaxVertices == 0 {
		o.MaxVertices = 10_000_000
	} else if o.MaxVertices < 0 {
		o.MaxVertices = 0
	}
	if o.MaxGraphs == 0 {
		o.MaxGraphs = 1024
	} else if o.MaxGraphs < 0 {
		o.MaxGraphs = 0
	}
	if o.DefaultTimeout == 0 {
		o.DefaultTimeout = 30 * time.Second
	} else if o.DefaultTimeout < 0 {
		// Like the neighbouring caps, negative means "none": jobs without
		// an explicit timeout fall through to the MaxTimeout clamp instead
		// of failing per-request validation with a negative default.
		o.DefaultTimeout = 0
	}
	if o.MaxTimeout == 0 {
		o.MaxTimeout = 10 * time.Minute
	} else if o.MaxTimeout < 0 {
		o.MaxTimeout = 0
	}
	if o.MaxJobWorkers == 0 {
		o.MaxJobWorkers = 4 * runtime.GOMAXPROCS(0)
	} else if o.MaxJobWorkers < 0 {
		o.MaxJobWorkers = 0
	}
	if o.RequestTimeout < 0 {
		o.RequestTimeout = 0
	}
	if o.WALSync == "" {
		o.WALSync = "always"
	}
	if o.CheckpointEvery == 0 {
		o.CheckpointEvery = 4096
	} else if o.CheckpointEvery < 0 {
		o.CheckpointEvery = 0
	}
	if o.RetainEpochs < 1 {
		o.RetainEpochs = 1
	}
	if o.CancelWait == 0 {
		o.CancelWait = 30 * time.Second
	} else if o.CancelWait < 0 {
		o.CancelWait = 0
	}
	if o.MaxReplicaLag == 0 {
		o.MaxReplicaLag = 5 * time.Second
	} else if o.MaxReplicaLag < 0 {
		o.MaxReplicaLag = 0
	}
	if o.AccessLogCap <= 0 {
		o.AccessLogCap = 4096
	}
	return o
}

// Server wires the graph store, the job scheduler, the middleware stack
// and the HTTP API. Use New, mount Handler on an http.Server, and Close
// on shutdown; BeginDrain + WaitIdle in between give a graceful drain.
type Server struct {
	opt       Options
	store     *Store
	sched     *Scheduler
	metrics   *Metrics
	accessLog *RingLogger
	handler   http.Handler
	started   time.Time
	recovered RecoverStats
	preload   LoadReport
	// cluster is the worker's view of its cluster (nil = single node).
	// Written once by SetCluster before the listener opens; handlers
	// read it without synchronization.
	cluster ClusterInfo

	closeOnce sync.Once
	closing   chan struct{} // closed when Close starts: unblocks bounded waits
}

// New builds a Server. When Options.DataDir is set it recovers the
// durable state from the write-ahead log before anything can observe
// the store; Options.StoreDir (if any) is preloaded afterwards, so
// preloaded uploads are themselves logged. Recovery details land in
// RecoveredStats.
func New(opt Options) (*Server, error) {
	opt = opt.withDefaults()
	s := &Server{
		opt:       opt,
		store:     NewStore(opt.MaxVertices, opt.MaxGraphs),
		sched:     NewScheduler(opt.Workers, opt.QueueCap, opt.DefaultTimeout, opt.MaxTimeout, opt.MaxJobWorkers),
		metrics:   NewMetrics(),
		accessLog: NewRingLogger(opt.AccessLog, opt.AccessLogCap),
		started:   time.Now(),
		closing:   make(chan struct{}),
	}
	s.store.SetRetainEpochs(opt.RetainEpochs)
	s.store.SetCheckpointEvery(opt.CheckpointEvery)
	// Outermost first: ids exist before anything observes the request,
	// Instrument sees the final status of everything inside it
	// (including panics Recover turned into 500s), and the timeout only
	// constrains the handler proper.
	s.handler = Chain(s.routes(),
		RequestID,
		Instrument(s.metrics, s.accessLog),
		Recover(s.metrics),
		Timeout(opt.RequestTimeout, s.metrics),
	)
	fail := func(err error) (*Server, error) {
		s.sched.Close()
		s.accessLog.Close()
		_ = s.store.CloseWAL()
		return nil, err
	}
	if opt.DataDir != "" {
		policy, err := wal.ParseSyncPolicy(opt.WALSync)
		if err != nil {
			return fail(err)
		}
		rs, err := s.store.OpenWAL(opt.DataDir, wal.Options{
			Sync:         policy,
			SyncInterval: opt.WALSyncInterval,
			SegmentBytes: opt.WALSegmentBytes,
		}, opt.WarmRecovery)
		if err != nil {
			return fail(err)
		}
		s.recovered = rs
	}
	if opt.StoreDir != "" {
		rep, err := s.store.LoadDir(opt.StoreDir)
		if err != nil {
			return fail(err)
		}
		s.preload = rep
	}
	return s, nil
}

// RecoveredStats reports what WAL recovery replayed at startup (zero
// without a DataDir).
func (s *Server) RecoveredStats() RecoverStats { return s.recovered }

// PreloadReport reports the StoreDir preload outcome (zero without a
// StoreDir).
func (s *Server) PreloadReport() LoadReport { return s.preload }

// Handler returns the HTTP API behind the full middleware stack.
func (s *Server) Handler() http.Handler { return s.handler }

// Store exposes the graph store (used by preloading and tests).
func (s *Server) Store() *Store { return s.store }

// Scheduler exposes the job scheduler (used by tests, mbbserved and mbbsoak).
func (s *Server) Scheduler() *Scheduler { return s.sched }

// Metrics exposes the request counters (used by tests and mbbsoak).
func (s *Server) Metrics() *Metrics { return s.metrics }

// BeginDrain stops admitting solve jobs — submissions get ErrDraining
// (HTTP 503 + Retry-After) — while everything already queued or running
// keeps going and read endpoints stay live. Call WaitIdle to learn when
// in-flight work has finished, then Close. Idempotent.
func (s *Server) BeginDrain() { s.sched.Drain() }

// Draining reports whether BeginDrain was called.
func (s *Server) Draining() bool { return s.sched.Draining() }

// WaitIdle blocks until no job is queued or running, or ctx expires.
func (s *Server) WaitIdle(ctx context.Context) error { return s.sched.WaitIdle(ctx) }

// Close cancels all jobs, stops the workers, flushes the access log and
// closes the WAL (final fsync included). The HTTP listener is the
// caller's to shut down (http.Server.Shutdown) before calling Close.
// Safe to call more than once.
func (s *Server) Close() {
	s.closeOnce.Do(func() { close(s.closing) })
	s.sched.Close()
	s.accessLog.Close()
	if err := s.store.CloseWAL(); err != nil {
		log.Printf("server: close wal: %v", err)
	}
}
