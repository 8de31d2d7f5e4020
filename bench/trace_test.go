package main

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/server"
)

func TestSelfTimeSubtractsTheUnionOfChildren(t *testing.T) {
	ns := func(name string, id, parent, start, end int64) span {
		return span{Name: name, ID: id, Op: 1, Parent: parent, Start: start, End: end}
	}
	spans := []span{
		ns("root", 1, 0, 0, 100),
		ns("a", 2, 1, 10, 40),
		ns("b", 3, 1, 30, 60),  // overlaps a: the union covers 10..60
		ns("c", 4, 2, 15, 25),  // a's child
		ns("d", 5, 1, 90, 120), // sticks out of root by 20
	}
	byName, overhang, roots := selfTimes(spans)
	want := map[string]time.Duration{"root": 100 - 50 - 10, "a": 30 - 10, "b": 30, "c": 10, "d": 30}
	for name, self := range want {
		if got := byName[name].self; got != self {
			t.Errorf("%s: self %v, want %v", name, got, self)
		}
	}
	if overhang != 20 || roots != 100 {
		t.Errorf("overhang %v of roots %v, want 20 of 100", overhang, roots)
	}
	// Self times add up to the root, plus the overhang, plus the time
	// siblings a and b both cover (30..40).
	var sum time.Duration
	for _, st := range byName {
		sum += st.self
	}
	if sum != roots+overhang+10 {
		t.Errorf("self times sum to %v, want %v", sum, roots+overhang+10)
	}
}

// TestAccessLogJoin formats a request with the daemon's own access
// logger, joins it under a client span, and checks the daemon and job
// spans land where the log and the JobInfo put them.
func TestAccessLogJoin(t *testing.T) {
	var buf bytes.Buffer
	logger := server.NewRingLogger(&buf, 16)
	dur := 1500 * time.Microsecond
	logger.Record("q7", "POST", "/graphs/g/solve", 200, 123, dur)
	logger.Close()
	recs, err := parseAccessLog(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	rec, ok := recs["q7"]
	if !ok || rec.method != "POST" || rec.path != "/graphs/g/solve" || rec.status != 200 || rec.dur != dur {
		t.Fatalf("parsed %+v from %q", rec, buf.String())
	}

	end := rec.end
	queued := end.Add(-1200 * time.Microsecond)
	started := queued.Add(200 * time.Microsecond)
	finished := started.Add(800 * time.Microsecond)
	job := server.JobInfo{
		Queued:   queued.Format(time.RFC3339Nano),
		Started:  started.Format(time.RFC3339Nano),
		Finished: finished.Format(time.RFC3339Nano),
	}
	tr := &tracer{}
	op := tr.op()
	root := tr.add("client.solve", op, 0, end.Add(-2*time.Millisecond), end.Add(100*time.Microsecond))
	if err := joinAccessLog(tr, buf.Bytes(), []joinReq{{kind: "solve", op: op, root: root, id: "q7", job: &job}}); err != nil {
		t.Fatal(err)
	}
	st := tr.stats()
	// client 2.1 ms − daemon 1.5 ms; daemon 1.5 ms − queue 0.2 − run 0.8.
	for name, self := range map[string]time.Duration{
		"client.solve": 600 * time.Microsecond,
		"server.solve": 500 * time.Microsecond,
		"server.queue": 200 * time.Microsecond,
		"server.job":   800 * time.Microsecond,
	} {
		if got := st[name]; got.n != 1 || got.self != self {
			t.Errorf("%s: %d spans, self %v, want 1 span, self %v", name, got.n, got.self, self)
		}
	}
	if f := tr.overhangFrac(); f != 0 {
		t.Errorf("overhang %v, want 0: the joined spans nest", f)
	}
	if err := joinAccessLog(tr, buf.Bytes(), []joinReq{{kind: "solve", op: op, root: root, id: "missing"}}); err == nil {
		t.Error("joining a request absent from the access log succeeded")
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	if op, id := tr.op(), tr.add("x", 1, 0, time.Now(), time.Now()); op != 0 || id != 0 {
		t.Errorf("nil tracer returned op %d, span %d", op, id)
	}
	if tr.stats() != nil {
		t.Error("nil tracer has stats")
	}
}
