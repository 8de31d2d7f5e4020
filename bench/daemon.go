package main

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"repro/internal/server"
)

// httpServer serves a handler on a loopback port until close.
type httpServer struct {
	url  string
	hs   *http.Server
	done chan struct{}
}

func serveHTTP(h http.Handler) (*httpServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &httpServer{url: "http://" + ln.Addr().String(), hs: &http.Server{Handler: h}, done: make(chan struct{})}
	go func() {
		defer close(s.done)
		s.hs.Serve(ln) // returns http.ErrServerClosed once close runs
	}()
	return s, nil
}

// close stops the listener and every connection, and waits for Serve.
func (s *httpServer) close() {
	s.hs.Close()
	<-s.done
}

// daemon is an in-process mbbserved: a server.Server behind the full
// middleware stack on a loopback port. Traced runs give it an access
// log, kept in memory for the span join.
type daemon struct {
	srv       *server.Server
	http      *httpServer
	accessLog *syncBuffer // nil unless traced
	closeOnce sync.Once
}

func startDaemon(opt server.Options, traced bool) (*daemon, error) {
	d := &daemon{}
	if traced {
		d.accessLog = &syncBuffer{}
		opt.AccessLog, opt.AccessLogCap = d.accessLog, 1<<16
	}
	srv, err := server.New(opt)
	if err != nil {
		return nil, err
	}
	d.srv = srv
	if d.http, err = serveHTTP(srv.Handler()); err != nil {
		srv.Close()
		return nil, err
	}
	return d, nil
}

// close shuts the listener, then the server, which flushes the access
// log and the WAL. Safe to call more than once.
func (d *daemon) close() {
	d.closeOnce.Do(func() {
		d.http.close()
		d.srv.Close()
	})
}

// joinReq is a traced request whose daemon-side spans are added once
// the access log is complete.
type joinReq struct {
	kind     string // "solve", "put" or "mutate"
	op, root int64
	id       string
	job      *server.JobInfo // the solve's job, nil for other requests
}

// joinAccessLog adds, under each request's root span, the daemon's view
// of the request from its access log, and under that the job's queue
// wait and run from its JobInfo timestamps.
func joinAccessLog(tr *tracer, accessLog []byte, reqs []joinReq) error {
	recs, err := parseAccessLog(accessLog)
	if err != nil {
		return err
	}
	for _, q := range reqs {
		rec, ok := recs[q.id]
		if !ok {
			return fmt.Errorf("request %s is missing from the access log", q.id)
		}
		srv := tr.add("server."+q.kind, q.op, q.root, rec.end.Add(-rec.dur), rec.end)
		if q.job == nil {
			continue
		}
		queued, started, finished, err := jobTimes(*q.job)
		if err != nil {
			return err
		}
		tr.add("server.queue", q.op, srv, queued, started)
		tr.add("server.job", q.op, srv, started, finished)
	}
	return nil
}

// jobTimes parses a finished job's queued, started and finished times.
func jobTimes(info server.JobInfo) (queued, started, finished time.Time, err error) {
	if queued, err = time.Parse(time.RFC3339Nano, info.Queued); err != nil {
		return
	}
	if started, err = time.Parse(time.RFC3339Nano, info.Started); err != nil {
		return
	}
	finished, err = time.Parse(time.RFC3339Nano, info.Finished)
	return
}

// solveJob decodes a synchronous solve's JobInfo and checks that it
// finished with an exact result.
func solveJob(body []byte) (server.JobInfo, error) {
	var info server.JobInfo
	if err := json.Unmarshal(body, &info); err != nil {
		return info, fmt.Errorf("decode job: %w", err)
	}
	if info.State != server.JobDone || info.Result == nil || !info.Result.Exact {
		return info, fmt.Errorf("job %s ended %s without an exact result (%s)", info.ID, info.State, info.Error)
	}
	return info, nil
}
