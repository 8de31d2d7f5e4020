package server

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/mbb"
)

// cancelErrSolver registers (once) a solver that waits for cancellation
// and then surfaces it as an error, the way a solver path that checks
// its context mid-search would.
var cancelErrSolver sync.Once

func registerCancelErrSolver(t *testing.T) {
	t.Helper()
	cancelErrSolver.Do(func() {
		err := mbb.Register(mbb.SolverSpec{
			Name: "testCancelErr",
			Doc:  "test-only: blocks until stopped, then returns context.Canceled",
			Run: func(ex *core.Exec, g *mbb.Graph, opt *mbb.Options) (core.Result, error) {
				for !ex.ShouldStop() {
					time.Sleep(time.Millisecond)
				}
				return core.Result{}, context.Canceled
			},
		})
		if err != nil {
			t.Fatalf("register test solver: %v", err)
		}
	})
}

// TestCanceledJobSurfacingCanceledError is the regression test for the
// canceled-job misclassification: when cancellation makes the solver
// path return context.Canceled as an error, the job must land in
// JobCanceled — not JobFailed with a spurious error message.
func TestCanceledJobSurfacingCanceledError(t *testing.T) {
	registerCancelErrSolver(t)
	srv, err := New(Options{Workers: 1, QueueCap: 4, DefaultTimeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	sg, err := srv.Store().Put("g", mustParse(t, k33minus))
	if err != nil {
		t.Fatal(err)
	}
	job, err := srv.Scheduler().Submit(sg, SolveRequest{Solver: "testCancelErr", Timeout: "1m"})
	if err != nil {
		t.Fatal(err)
	}
	// Wait until the job is actually running so the cancel exercises the
	// running-job path (a queued job is finished directly by Cancel).
	deadline := time.Now().Add(5 * time.Second)
	for {
		if job.Info().State == JobRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never started: %+v", job.Info())
		}
		time.Sleep(time.Millisecond)
	}
	srv.Scheduler().Cancel(job.ID())
	<-job.Done()
	info := job.Info()
	if info.State != JobCanceled {
		t.Fatalf("job state %q (error %q), want %q", info.State, info.Error, JobCanceled)
	}
	if info.Error != "" {
		t.Fatalf("canceled job carries error %q, want none", info.Error)
	}
}

// TestPruneRetainedSet pins the set of jobs the scheduler retains: after
// every submission, the oldest finished jobs beyond retainFinished are
// gone and no queued or running job ever is. The model is the direct
// rule, a walk over every retained job in submission order. Some jobs
// run for a long stretch of submissions, so the pruning walk must step
// past live jobs and come back for them once they finish.
func TestPruneRetainedSet(t *testing.T) {
	s := &Scheduler{jobs: make(map[string]*Job)}
	var model []*Job // retained jobs in submission order
	modelPrune := func() {
		excess := len(model) - retainFinished
		kept := model[:0]
		for _, job := range model {
			if excess > 0 && job.state.Terminal() {
				excess--
				continue
			}
			kept = append(kept, job)
		}
		model = kept
	}
	rng := rand.New(rand.NewSource(1))
	var live []*Job
	for i := 0; i < 6*retainFinished; i++ {
		job := &Job{id: fmt.Sprintf("j%d", i), state: JobQueued}
		s.mu.Lock()
		s.jobs[job.id] = job
		s.order = append(s.order, job)
		s.pruneLocked()
		retained := slices.Clone(s.order[s.head:])
		s.mu.Unlock()
		model = append(model, job)
		modelPrune()
		if !slices.Equal(retained, model) || len(s.jobs) != len(model) {
			t.Fatalf("after submission %d: %d retained (%d in the table), want %d", i, len(retained), len(s.jobs), len(model))
		}
		// Jobs finish out of order; those whose id ends in 7 mostly stay
		// live for a long stretch.
		live = append(live, job)
		for k := rng.Intn(3); k > 0 && len(live) > 0; k-- {
			j := rng.Intn(len(live))
			if strings.HasSuffix(live[j].id, "7") && rng.Intn(300) > 0 {
				continue
			}
			live[j].state = []JobState{JobDone, JobFailed, JobCanceled}[rng.Intn(3)]
			live = slices.Delete(live, j, j+1)
		}
	}
	if len(live) < 10 {
		t.Fatalf("only %d jobs stayed live; the walk never had to step past one", len(live))
	}
}
