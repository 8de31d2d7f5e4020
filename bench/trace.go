package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// span is one timed interval of a traced run: a call the benchmark made,
// a request as the daemon's access log saw it, or a job's queue wait or
// run as its JobInfo reports them. Spans of one operation share Op; a
// root span has Parent 0. Times are Unix nanoseconds, so spans measured
// by the benchmark and by the in-process daemon share one clock.
type span struct {
	Name   string `json:"name"`
	ID     int64  `json:"id"`
	Op     int64  `json:"op"`
	Parent int64  `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps a traced run's spans in memory until the run ends. A nil
// tracer records nothing, so untraced runs call through the same code.
type tracer struct {
	mu    sync.Mutex
	spans []span
	ops   int64
}

// op returns a fresh operation id (0 from a nil tracer).
func (t *tracer) op() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ops++
	return t.ops
}

// add records a span and returns its id (0 from a nil tracer).
func (t *tracer) add(name string, op, parent int64, start, end time.Time) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{Name: name, ID: id, Op: op, Parent: parent, Start: start.UnixNano(), End: end.UnixNano()})
	return id
}

// selfStat aggregates the spans of one name.
type selfStat struct {
	n     int
	self  time.Duration // span durations minus the part their children cover
	total time.Duration
}

func (s selfStat) meanSelfMs() float64 {
	if s.n == 0 {
		return 0
	}
	return ms(s.self) / float64(s.n)
}

// selfTimes computes every span's self time — its duration minus the
// part of its interval its children cover — and sums them by name. It
// also returns how much child time fell outside the parent's interval
// (overhang) against the total root duration: with a sound join the
// children nest in their parents and the self times of a tree add up to
// its root.
func selfTimes(spans []span) (byName map[string]selfStat, overhang, roots time.Duration) {
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	byName = make(map[string]selfStat)
	for _, s := range spans {
		covered, out := coverage(s, children[s.ID])
		overhang += out
		if s.Parent == 0 {
			roots += s.dur()
		}
		st := byName[s.Name]
		st.n++
		st.self += s.dur() - covered
		st.total += s.dur()
		byName[s.Name] = st
	}
	return byName, overhang, roots
}

// coverage returns how much of parent's interval the union of kids
// covers, and how much kid time lies outside it.
func coverage(parent span, kids []span) (covered, outside time.Duration) {
	type iv struct{ lo, hi int64 }
	var ivs []iv
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		outside += k.dur()
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
			outside -= time.Duration(hi - lo)
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.lo <= cur.hi:
			cur.hi = max(cur.hi, v.hi)
		default:
			covered += time.Duration(cur.hi - cur.lo)
			cur = v
		}
	}
	if len(ivs) > 0 {
		covered += time.Duration(cur.hi - cur.lo)
	}
	return covered, outside
}

// stats returns the per-name self-time aggregates of every span so far.
func (t *tracer) stats() map[string]selfStat {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	byName, _, _ := selfTimes(t.spans)
	return byName
}

// overhangFrac is the share of root time by which joined child spans
// stick out of their parents — 0 for a trace whose layers nest.
func (t *tracer) overhangFrac() float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	_, out, roots := selfTimes(t.spans)
	if roots == 0 {
		return 0
	}
	return float64(out) / float64(roots)
}

// printSelf writes the self-time table: per span name, the count, the
// mean duration and the mean self time.
func (t *tracer) printSelf(w io.Writer) {
	byName := t.stats()
	names := make([]string, 0, len(byName))
	for n := range byName {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-24s %8s %12s %12s\n", "span", "count", "mean_ms", "self_ms")
	for _, n := range names {
		st := byName[n]
		fmt.Fprintf(w, "%-24s %8d %12.4f %12.4f\n", n, st.n, ms(st.total)/float64(st.n), st.meanSelfMs())
	}
}

func (t *tracer) writeJSONLines(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// accessRec is one line of the daemon's access log.
type accessRec struct {
	method, path string
	status       int
	end          time.Time
	dur          time.Duration
}

// parseAccessLog indexes the daemon's logfmt access log by request id:
//
//	ts=<RFC3339Nano> id=<id> method=<m> path=<p> status=<n> bytes=<n> dur=<seconds>s
func parseAccessLog(data []byte) (map[string]accessRec, error) {
	out := make(map[string]accessRec)
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		var id string
		var rec accessRec
		var err error
		for _, field := range strings.Fields(sc.Text()) {
			k, v, _ := strings.Cut(field, "=")
			switch k {
			case "ts":
				rec.end, err = time.Parse(time.RFC3339Nano, v)
			case "id":
				id = v
			case "method":
				rec.method = v
			case "path":
				rec.path = v
			case "status":
				rec.status, err = strconv.Atoi(v)
			case "dur":
				var secs float64
				secs, err = strconv.ParseFloat(strings.TrimSuffix(v, "s"), 64)
				rec.dur = time.Duration(math.Round(secs * 1e9))
			}
			if err != nil {
				return nil, fmt.Errorf("access log line %q: %w", sc.Text(), err)
			}
		}
		if id == "" {
			return nil, errors.New("access log line without a request id")
		}
		out[id] = rec
	}
	return out, sc.Err()
}

// syncBuffer is the in-memory sink of a traced daemon's access log,
// written by the logger's drain goroutine.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) bytes() []byte {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]byte(nil), b.buf.Bytes()...)
}
