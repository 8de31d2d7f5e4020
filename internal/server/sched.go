package server

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/mbb"
)

// JobState is the lifecycle of a solve job.
type JobState string

const (
	JobQueued   JobState = "queued"
	JobRunning  JobState = "running"
	JobDone     JobState = "done"
	JobFailed   JobState = "failed"
	JobCanceled JobState = "canceled"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == JobDone || s == JobFailed || s == JobCanceled
}

// SolveRequest is the JSON body of a solve submission. The zero value
// asks for the automatic solver with the server's default budget; all
// budget fields pass straight through to mbb.Options, whose entry-point
// validation turns nonsense (negative budgets, unknown solvers) into a
// 400 at submit time rather than a late job failure.
type SolveRequest struct {
	// Solver is a registry name ("auto", "hbvMBB", "denseMBB", ...);
	// empty means auto.
	Solver string `json:"solver,omitempty"`
	// Timeout is a Go duration string ("500ms", "30s"); empty picks the
	// server default, and the server-wide maximum always applies.
	Timeout string `json:"timeout,omitempty"`
	// MaxNodes bounds the search nodes spent on the job; 0 = unlimited.
	MaxNodes int64 `json:"max_nodes,omitempty"`
	// Workers is the per-job goroutine budget (0/1 sequential).
	Workers int `json:"workers,omitempty"`
	// Reduce is the planner mode: "auto" (default), "on", "off". When
	// the planner applies, the solve reuses the graph's cached plan.
	Reduce string `json:"reduce,omitempty"`
	// TopK asks for the k largest distinct balanced sizes (0/1 = the
	// classic single maximum). Also settable via the ?k= URL parameter.
	TopK int `json:"k,omitempty"`
	// MinSize is the size-constrained floor: only bicliques of at least
	// MinSize per side count; an empty exact result is a proof of
	// absence. Also settable via the ?min= URL parameter.
	MinSize int `json:"min_size,omitempty"`
}

// resolve turns the wire request into validated mbb.Options plus the
// cached-plan decision. defTimeout fills an unset timeout; maxTimeout
// (when > 0) caps any timeout, including "unlimited"; maxWorkers (when
// > 0) clamps the per-job goroutine budget — an uncapped client value
// would size channels and goroutine pools inside the solvers.
func (r SolveRequest) resolve(defTimeout, maxTimeout time.Duration, maxWorkers int) (*mbb.Options, bool, error) {
	opt := &mbb.Options{Solver: r.Solver, MaxNodes: r.MaxNodes, Workers: r.Workers, TopK: r.TopK, MinSize: r.MinSize}
	if r.Timeout != "" {
		d, err := time.ParseDuration(r.Timeout)
		if err != nil {
			return nil, false, fmt.Errorf("bad timeout %q: %w", r.Timeout, err)
		}
		opt.Timeout = d
	} else {
		opt.Timeout = defTimeout
	}
	reduce, ok := mbb.ParseReduce(r.Reduce)
	if !ok {
		return nil, false, fmt.Errorf("bad reduce mode %q (want auto, on or off)", r.Reduce)
	}
	opt.Reduce = reduce
	if err := opt.Validate(); err != nil {
		return nil, false, err
	}
	if maxTimeout > 0 && (opt.Timeout <= 0 || opt.Timeout > maxTimeout) {
		opt.Timeout = maxTimeout
	}
	if maxWorkers > 0 && opt.Workers > maxWorkers {
		opt.Workers = maxWorkers
	}
	usePlan, err := opt.PlanActive()
	if err != nil {
		return nil, false, err // unknown solver
	}
	return opt, usePlan, nil
}

// StatsJSON is the wire form of the search statistics the service
// reports per job: the planner's cached-reduction story (τ, peeled,
// components) plus the search effort.
type StatsJSON struct {
	Nodes      int64  `json:"nodes"`
	Tau        int    `json:"tau"`
	Peeled     int64  `json:"peeled"`
	Components int    `json:"components"`
	Repairs    int    `json:"repairs,omitempty"` // plan repairs the serving plan accumulated
	Step       string `json:"step,omitempty"`
	TimedOut   bool   `json:"timed_out"`
}

func statsJSON(s core.Stats) StatsJSON {
	out := StatsJSON{
		Nodes: s.Nodes, Tau: s.SeedTau, Peeled: s.Peeled,
		Components: s.Components, Repairs: s.Repairs, TimedOut: s.TimedOut,
	}
	if s.Step != core.StepNone {
		out.Step = s.Step.String()
	}
	return out
}

// BicliqueJSON is one entry of a top-k answer list on the wire: a
// balanced witness in side-local indices, like the scalar A/B fields.
type BicliqueJSON struct {
	Size int   `json:"size"`
	A    []int `json:"a"`
	B    []int `json:"b"`
}

// JobResult is the outcome of a finished (or canceled-midway) job. A and
// B are side-local indices like the CLI prints. Epoch is the snapshot
// version the job solved: the result is exact (when Exact) for exactly
// that published version of the graph, which may be older than the
// store's current epoch if mutations landed while the job ran.
//
// Gap is always present (including on canceled jobs' best-so-far
// results): the certified optimality gap of the answer, 0 when Exact.
// Bicliques appears only for top-k submissions (k > 1), one witness per
// distinct size, largest first.
type JobResult struct {
	Size       int            `json:"size"`
	A          []int          `json:"a"`
	B          []int          `json:"b"`
	Bicliques  []BicliqueJSON `json:"bicliques,omitempty"`
	Exact      bool           `json:"exact"`
	Gap        int            `json:"gap"`
	Epoch      uint64         `json:"epoch"`
	Solver     string         `json:"solver"`
	Reduced    bool           `json:"reduced"`
	PlanCached bool           `json:"plan_cached"`
	Seconds    float64        `json:"seconds"`
	Stats      StatsJSON      `json:"stats"`
}

// Job is one scheduled solve. All mutable state is behind mu; Done is
// closed exactly once when the job reaches a terminal state.
type Job struct {
	id     string
	origin string // request id of the submitting HTTP request, if any
	// graphName, not *StoredGraph: a terminal job retained for status
	// queries must not keep a replaced graph generation (and its current
	// snapshot) alive — the name is all Info ever needs.
	graphName string
	snap      *Snapshot // pinned at submission: mutations never move a job
	opt       *mbb.Options
	usePlan   bool

	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{}

	mu         sync.Mutex
	state      JobState
	queuedAt   time.Time
	startedAt  time.Time
	finishedAt time.Time
	canceled   bool
	result     *JobResult
	errMsg     string
}

// ID returns the job id.
func (j *Job) ID() string { return j.id }

// Done is closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// JobInfo is the JSON status view of a job. RequestID names the HTTP
// request that submitted it, so a job can be joined back to the access
// log and to the client's own tracing.
type JobInfo struct {
	ID        string     `json:"id"`
	RequestID string     `json:"request_id,omitempty"`
	Graph     string     `json:"graph"`
	State     JobState   `json:"state"`
	Queued    string     `json:"queued"`
	Started   string     `json:"started,omitempty"`
	Finished  string     `json:"finished,omitempty"`
	Error     string     `json:"error,omitempty"`
	Result    *JobResult `json:"result,omitempty"`
}

// Info returns the job's status snapshot.
func (j *Job) Info() JobInfo {
	j.mu.Lock()
	defer j.mu.Unlock()
	info := JobInfo{
		ID:        j.id,
		RequestID: j.origin,
		Graph:     j.graphName,
		State:     j.state,
		Queued:    j.queuedAt.UTC().Format(time.RFC3339Nano),
		Error:     j.errMsg,
		Result:    j.result,
	}
	if !j.startedAt.IsZero() {
		info.Started = j.startedAt.UTC().Format(time.RFC3339Nano)
	}
	if !j.finishedAt.IsZero() {
		info.Finished = j.finishedAt.UTC().Format(time.RFC3339Nano)
	}
	return info
}

// ErrQueueFull is returned by Submit when the job queue is at capacity —
// the server-wide admission bound (HTTP maps it to 503).
var ErrQueueFull = errors.New("server: job queue full")

// ErrClosed is returned by Submit after Close.
var ErrClosed = errors.New("server: scheduler closed")

// ErrDraining is returned by Submit while the scheduler is draining:
// admission is over but in-flight jobs are still finishing. Clients
// should retry against the restarted (or replacement) daemon — the
// HTTP layer maps it to a 503 with Retry-After.
var ErrDraining = errors.New("server: draining, not accepting jobs")

// retainFinished bounds how many finished jobs stay queryable; beyond
// it the oldest finished jobs are pruned so a long-running daemon's job
// table cannot grow without bound.
const retainFinished = 1024

// Scheduler runs solve jobs on a fixed pool of worker goroutines
// draining a bounded queue. The pool size is the server-wide
// concurrent-solve cap; the queue depth is the admission bound. Each job
// solves on its own execution context (per-job timeout and node budget)
// and is cancelable while queued or running.
type Scheduler struct {
	queue      chan *Job
	defTimeout time.Duration
	maxTimeout time.Duration
	maxWorkers int

	mu   sync.Mutex
	jobs map[string]*Job
	// order[head:] holds the retained jobs in submission order, for
	// listing and pruning; order[:head] is spent.
	order  []*Job
	head   int
	closed bool

	nextID   atomic.Int64
	running  atomic.Int64
	live     atomic.Int64 // jobs not yet terminal (queued + running)
	draining atomic.Bool

	// Cumulative outcome counters for /metrics — unlike Stats, these
	// never decrease when finished jobs are pruned from the table.
	ctrSubmitted atomic.Int64
	ctrDone      atomic.Int64
	ctrFailed    atomic.Int64
	ctrCanceled  atomic.Int64

	wg sync.WaitGroup
}

// SchedCounters is the cumulative, prune-proof job accounting.
type SchedCounters struct {
	Submitted int64
	Done      int64
	Failed    int64
	Canceled  int64
}

// Counters returns the cumulative job counters.
func (s *Scheduler) Counters() SchedCounters {
	return SchedCounters{
		Submitted: s.ctrSubmitted.Load(),
		Done:      s.ctrDone.Load(),
		Failed:    s.ctrFailed.Load(),
		Canceled:  s.ctrCanceled.Load(),
	}
}

// QueueDepth reports how many jobs are waiting in the queue.
func (s *Scheduler) QueueDepth() int { return len(s.queue) }

// QueueCapacity reports the admission bound.
func (s *Scheduler) QueueCapacity() int { return cap(s.queue) }

// Running reports how many jobs are executing right now.
func (s *Scheduler) Running() int64 { return s.running.Load() }

// Live reports how many jobs have not reached a terminal state.
func (s *Scheduler) Live() int64 { return s.live.Load() }

// Drain stops admission without touching in-flight jobs: Submit returns
// ErrDraining while queued and running jobs finish naturally. Use
// WaitIdle to find out when they have.
func (s *Scheduler) Drain() { s.draining.Store(true) }

// Draining reports whether Drain was called.
func (s *Scheduler) Draining() bool { return s.draining.Load() }

// WaitIdle blocks until no job is queued or running, or ctx expires
// (returning its error). It does not stop admission by itself — pair it
// with Drain, or new submissions can keep it waiting forever.
func (s *Scheduler) WaitIdle(ctx context.Context) error {
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	for {
		if s.live.Load() == 0 {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-tick.C:
		}
	}
}

// finish records a job's terminal accounting. Call exactly once per
// job, at the point its done channel is closed.
func (s *Scheduler) finish(state JobState) {
	switch state {
	case JobDone:
		s.ctrDone.Add(1)
	case JobFailed:
		s.ctrFailed.Add(1)
	case JobCanceled:
		s.ctrCanceled.Add(1)
	}
	s.live.Add(-1)
}

// NewScheduler starts workers goroutines (min 1) draining a queue of
// queueCap slots (min 1). defTimeout fills unset per-job timeouts;
// maxTimeout (when > 0) caps every job's timeout, including "unlimited"
// requests; maxWorkers (when > 0) clamps each job's requested goroutine
// budget.
func NewScheduler(workers, queueCap int, defTimeout, maxTimeout time.Duration, maxWorkers int) *Scheduler {
	if workers < 1 {
		workers = 1
	}
	if queueCap < 1 {
		queueCap = 1
	}
	s := &Scheduler{
		queue:      make(chan *Job, queueCap),
		defTimeout: defTimeout,
		maxTimeout: maxTimeout,
		maxWorkers: maxWorkers,
		jobs:       make(map[string]*Job),
	}
	for i := 0; i < workers; i++ {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			for job := range s.queue {
				s.run(job)
			}
		}()
	}
	return s
}

// Submit validates req, enqueues a job against sg's current snapshot and
// returns it. The job pins that Snapshot for its whole life, so neither
// a concurrent store delete nor an edge mutation affects it: the solve
// runs against exactly one published version and reports its epoch.
func (s *Scheduler) Submit(sg *StoredGraph, req SolveRequest) (*Job, error) {
	return s.SubmitOrigin(sg, req, "")
}

// SubmitOrigin is Submit carrying the request id of the HTTP request
// that asked for the job, so job info and logs can be joined back to
// the client's trace.
func (s *Scheduler) SubmitOrigin(sg *StoredGraph, req SolveRequest, origin string) (*Job, error) {
	return s.SubmitSnapshot(sg, sg.Snapshot(), req, origin)
}

// SubmitSnapshot is SubmitOrigin against an explicit snapshot — the
// entry point for epoch-pinned historical solves (?epoch=E resolves a
// retained snapshot first). The job pins snap for its whole run, which
// keeps the epoch inside the retention window until the solve finishes.
func (s *Scheduler) SubmitSnapshot(sg *StoredGraph, snap *Snapshot, req SolveRequest, origin string) (*Job, error) {
	opt, usePlan, err := req.resolve(s.defTimeout, s.maxTimeout, s.maxWorkers)
	if err != nil {
		return nil, err
	}
	if s.draining.Load() {
		return nil, ErrDraining
	}
	ctx, cancel := context.WithCancel(context.Background())
	snap.pin()
	job := &Job{
		graphName: sg.Name(), origin: origin, snap: snap, opt: opt, usePlan: usePlan,
		ctx: ctx, cancel: cancel,
		done:  make(chan struct{}),
		state: JobQueued, queuedAt: time.Now(),
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		cancel()
		snap.unpin()
		return nil, ErrClosed
	}
	job.id = fmt.Sprintf("j%d", s.nextID.Add(1))
	select {
	case s.queue <- job:
	default:
		cancel()
		snap.unpin()
		return nil, ErrQueueFull
	}
	s.jobs[job.id] = job
	s.order = append(s.order, job)
	s.ctrSubmitted.Add(1)
	s.live.Add(1)
	s.pruneLocked()
	return job, nil
}

// releaseSnap drops a terminal job's snapshot pin and reference exactly
// once. Callers hold job.mu.
func releaseSnap(job *Job) {
	if job.snap != nil {
		job.snap.unpin()
		job.snap = nil
	}
}

// pruneLocked drops the oldest finished jobs beyond retainFinished. It
// walks the retained jobs from the oldest and stops once enough are
// gone, so a submission costs O(1) amortized, plus a step over each
// queued or running job the walk passes: those slide up to where it
// stopped, and the next walk starts at them.
func (s *Scheduler) pruneLocked() {
	excess := len(s.jobs) - retainFinished
	i := s.head
	for ; excess > 0 && i < len(s.order); i++ {
		job := s.order[i]
		job.mu.Lock()
		terminal := job.state.Terminal()
		job.mu.Unlock()
		if terminal {
			delete(s.jobs, job.id)
			s.order[i] = nil
			excess--
		}
	}
	w := i
	for j := i - 1; j >= s.head; j-- {
		if job := s.order[j]; job != nil {
			w--
			s.order[j] = nil
			s.order[w] = job
		}
	}
	s.head = w
	if s.head > len(s.order)/2 {
		n := copy(s.order, s.order[s.head:])
		clear(s.order[n:])
		s.order, s.head = s.order[:n], 0
	}
}

// run executes one dequeued job.
func (s *Scheduler) run(job *Job) {
	job.mu.Lock()
	if job.state.Terminal() { // canceled while queued
		job.mu.Unlock()
		return
	}
	job.state = JobRunning
	job.startedAt = time.Now()
	job.mu.Unlock()

	s.running.Add(1)
	defer s.running.Add(-1)

	start := time.Now()
	var (
		res        mbb.Result
		err        error
		planCached bool
	)
	if job.usePlan {
		var plan *mbb.Plan
		var built bool
		plan, built, err = job.snap.Plan()
		planCached = err == nil && !built
		if err == nil {
			res, err = plan.SolveContext(job.ctx, job.opt)
		}
	} else {
		res, err = mbb.SolveContext(job.ctx, job.snap.Graph(), job.opt)
	}
	secs := time.Since(start).Seconds()

	job.mu.Lock()
	defer job.mu.Unlock()
	job.finishedAt = time.Now()
	switch {
	case job.canceled && errors.Is(err, context.Canceled):
		// The cancellation itself surfaced as an error from the solver
		// path. That is a canceled job, not a failed one — there is no
		// best-so-far result to keep, but the state must say "canceled"
		// so clients can tell their own cancel apart from a crash.
		job.state = JobCanceled
	case err != nil:
		job.state = JobFailed
		job.errMsg = err.Error()
	case job.canceled:
		// Canceled mid-run: the engine returned the best-so-far witness
		// with Exact == false; keep it — a canceled solve is still a
		// valid (inexact) answer.
		job.state = JobCanceled
		job.result = jobResult(job.snap, res, planCached, secs)
	default:
		job.state = JobDone
		job.result = jobResult(job.snap, res, planCached, secs)
	}
	// Release the snapshot pin: the result already carries the epoch,
	// and a terminal job retained for status queries must not keep a
	// whole historical graph version (plus plan) alive with it.
	releaseSnap(job)
	s.finish(job.state)
	close(job.done)
}

func jobResult(snap *Snapshot, res mbb.Result, planCached bool, secs float64) *JobResult {
	g := snap.Graph()
	localize := func(ids []int) []int {
		out := make([]int, len(ids))
		for i, v := range ids {
			out[i] = g.LocalIndex(v)
		}
		return out
	}
	jr := &JobResult{
		Size: res.Biclique.Size(), A: localize(res.Biclique.A), B: localize(res.Biclique.B),
		Exact: res.Exact, Gap: res.Gap, Epoch: snap.Epoch(), Solver: res.Solver, Reduced: res.Reduced,
		PlanCached: planCached, Seconds: secs, Stats: statsJSON(res.Stats),
	}
	if res.Bicliques != nil {
		jr.Bicliques = make([]BicliqueJSON, len(res.Bicliques))
		for i, bc := range res.Bicliques {
			jr.Bicliques[i] = BicliqueJSON{Size: bc.Size(), A: localize(bc.A), B: localize(bc.B)}
		}
	}
	return jr
}

// Get returns a job by id.
func (s *Scheduler) Get(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	job, ok := s.jobs[id]
	return job, ok
}

// Cancel requests cooperative cancellation of a job. A queued job
// finishes immediately as canceled; a running job's execution context is
// cancelled and the job lands in JobCanceled with its best-so-far
// result. Returns false for unknown ids, true otherwise (including jobs
// already terminal — cancellation is idempotent).
func (s *Scheduler) Cancel(id string) bool {
	job, ok := s.Get(id)
	if !ok {
		return false
	}
	job.mu.Lock()
	defer job.mu.Unlock()
	if job.state.Terminal() {
		return true
	}
	job.canceled = true
	job.cancel()
	if job.state == JobQueued {
		// Finish now: the worker that eventually pops it will skip it.
		job.state = JobCanceled
		job.finishedAt = time.Now()
		releaseSnap(job) // release the pinned snapshot, as in run()
		s.finish(job.state)
		close(job.done)
	}
	return true
}

// List returns every retained job's info in submission order.
func (s *Scheduler) List() []JobInfo {
	s.mu.Lock()
	jobs := slices.Clone(s.order[s.head:])
	s.mu.Unlock()
	out := make([]JobInfo, len(jobs))
	for i, job := range jobs {
		out[i] = job.Info()
	}
	return out
}

// SchedStats is the scheduler section of GET /stats.
type SchedStats struct {
	Workers  int   `json:"workers"`
	QueueCap int   `json:"queue_cap"`
	Queued   int   `json:"queued"`
	Running  int64 `json:"running"`
	Done     int   `json:"done"`
	Failed   int   `json:"failed"`
	Canceled int   `json:"canceled"`
}

// Stats counts jobs by state.
func (s *Scheduler) Stats(workers int) SchedStats {
	st := SchedStats{Workers: workers, QueueCap: cap(s.queue), Running: s.running.Load()}
	s.mu.Lock()
	jobs := make([]*Job, 0, len(s.jobs))
	for _, job := range s.jobs {
		jobs = append(jobs, job)
	}
	s.mu.Unlock()
	for _, job := range jobs {
		job.mu.Lock()
		state := job.state
		job.mu.Unlock()
		switch state {
		case JobQueued:
			st.Queued++
		case JobDone:
			st.Done++
		case JobFailed:
			st.Failed++
		case JobCanceled:
			st.Canceled++
		}
	}
	return st
}

// Close stops admission, cancels every live job and waits for the
// workers to drain. Safe to call more than once.
func (s *Scheduler) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	s.closed = true
	jobs := make([]*Job, 0, len(s.jobs))
	for _, job := range s.jobs {
		jobs = append(jobs, job)
	}
	close(s.queue)
	s.mu.Unlock()
	ids := make([]string, 0, len(jobs))
	for _, job := range jobs {
		ids = append(ids, job.id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		s.Cancel(id)
	}
	s.wg.Wait()
}
