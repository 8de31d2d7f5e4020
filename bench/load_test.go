package main

import (
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// stalledServer answers at once, except that its first request stalls
// for stall.
func stalledServer(stall time.Duration) *httptest.Server {
	var first atomic.Bool
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if first.CompareAndSwap(false, true) {
			time.Sleep(stall)
		}
		w.Write([]byte("{}"))
	}))
}

// TestOpenLoopChargesStallFromDueTime checks the open loop's accounting
// against a stalled handler: requests that queue behind the stall on the
// one connection are timed from when they were due, so each carries the
// part of the stall it waited through, while the generator itself keeps
// its schedule.
func TestOpenLoopChargesStallFromDueTime(t *testing.T) {
	const stall, rate = 300 * time.Millisecond, 100.0
	srv := stalledServer(stall)
	defer srv.Close()
	c := newClient(srv.URL, "t", 1)
	defer c.close()

	start := time.Now()
	var mu sync.Mutex
	lat := make(map[int]time.Duration)
	late := openLoop(start, rate, 200*time.Millisecond, func(i int, due time.Time) {
		cl, err := c.do("GET", "/", nil)
		if err != nil {
			t.Error(err)
			return
		}
		mu.Lock()
		lat[i] = cl.end.Sub(due)
		mu.Unlock()
	})
	if len(late) != 20 || len(lat) != 20 {
		t.Fatalf("sent %d requests, completed %d, want 20 each", len(late), len(lat))
	}
	stallEnd := start.Add(stall)
	for i, l := range lat {
		due := start.Add(time.Duration(i) * 10 * time.Millisecond)
		if floor := stallEnd.Sub(due); l < floor {
			t.Errorf("request %d: latency %v from its due time, but it could not finish before the stall ended %v after it was due", i, l, floor)
		}
	}
	if p := percentile(late, 50); p > ms(stall)/3 {
		t.Errorf("generator median lateness %.1fms: the schedule waited on the stalled handler", p)
	}
}

// TestPacedChargesBacklogNotLateness checks the in-order sender: a
// stalled call delays the calls behind it, which are timed from their
// due times, and the backlog is not reported as generator lateness.
func TestPacedChargesBacklogNotLateness(t *testing.T) {
	const stall = 200 * time.Millisecond
	start := time.Now()
	var ends []time.Time
	late := paced(start, 100, 10, func(i int, due time.Time) {
		if i == 0 {
			time.Sleep(stall)
		}
		ends = append(ends, time.Now())
	})
	for i, end := range ends {
		due := start.Add(time.Duration(i) * 10 * time.Millisecond)
		if floor := start.Add(stall).Sub(due); end.Sub(due) < floor {
			t.Errorf("call %d finished %v after due, before the stall could have let it run (%v)", i, end.Sub(due), floor)
		}
	}
	// Only call 0 found the sender idle at its due time (calls 1–9 were
	// due while call 0 stalled), so there is at most one lateness sample.
	if len(late) > 1 {
		t.Errorf("%d lateness samples, want at most 1: a backlog is not generator lateness", len(late))
	}
}

func TestClosedLoopRunsBackToBackUntilDur(t *testing.T) {
	var calls [2]atomic.Int64
	wall := closedLoop(2, 50*time.Millisecond, func(w int) {
		calls[w].Add(1)
		time.Sleep(5 * time.Millisecond)
	})
	for w := range calls {
		if n := calls[w].Load(); n < 1 || n > 10 {
			t.Errorf("worker %d made %d calls of at least 5 ms in 50 ms", w, n)
		}
	}
	if wall < 50*time.Millisecond {
		t.Errorf("wall time %v, want at least the 50 ms asked for", wall)
	}
}
