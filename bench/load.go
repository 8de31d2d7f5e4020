package main

// The HTTP load generator: one client with a fixed connection budget, and
// the three loop shapes the serving workloads use. Open loops time each
// request from when it was due, so a stall is charged to every request
// it delays, and report how late the generator itself woke.

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptrace"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// client sends requests to one base URL over at most conns keep-alive
// connections. Every request carries a fresh X-Request-Id, which the
// daemon echoes into its access log and job info for the trace join.
type client struct {
	base   string
	prefix string
	tr     *http.Transport
	hc     *http.Client
	ids    atomic.Int64
}

func newClient(base, idPrefix string, conns int) *client {
	tr := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}
	return &client{base: base, prefix: idPrefix, tr: tr, hc: &http.Client{Transport: tr, Timeout: time.Minute}}
}

// call is one completed request. sent is when it got a connection:
// start..sent is time queued in the client for one of its connections.
type call struct {
	id               string
	status           int
	body             []byte
	start, sent, end time.Time
}

// do sends one request and reads the whole response. A transport error
// or a non-2xx status is an error.
func (c *client) do(method, path string, body []byte) (call, error) {
	cl := call{id: c.prefix + strconv.FormatInt(c.ids.Add(1), 10)}
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return cl, err
	}
	req.Header.Set("X-Request-Id", cl.id)
	req = req.WithContext(httptrace.WithClientTrace(req.Context(), &httptrace.ClientTrace{
		GotConn: func(httptrace.GotConnInfo) { cl.sent = time.Now() },
	}))
	cl.start = time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		cl.end = time.Now()
		return cl, err
	}
	cl.body, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	cl.end, cl.status = time.Now(), resp.StatusCode
	if err == nil && (cl.status < 200 || cl.status > 299) {
		err = fmt.Errorf("%s %s: status %d: %s", method, path, cl.status, bytes.TrimSpace(cl.body))
	}
	return cl, err
}

func (c *client) close() { c.tr.CloseIdleConnections() }

// openLoop calls send(i, due) for request i at start + i/rate until dur
// has passed, each in its own goroutine, so a slow response never delays
// the schedule; requests wait only for a free connection. It returns,
// per request, how late the generator woke after the due time (ms).
func openLoop(start time.Time, rate float64, dur time.Duration, send func(i int, due time.Time)) []float64 {
	interval := time.Duration(float64(time.Second) / rate)
	var wg sync.WaitGroup
	var late []float64
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * interval)
		if due.Sub(start) >= dur {
			break
		}
		time.Sleep(time.Until(due))
		late = append(late, ms(time.Since(due)))
		wg.Add(1)
		go func() {
			defer wg.Done()
			send(i, due)
		}()
	}
	wg.Wait()
	return late
}

// paced calls send(i, due) for i in [0, n) from one goroutine, in order,
// at start + i/rate — or as soon as the previous call returns when that
// is later. It suits requests that must not reorder, such as a mutation
// stream. Lateness (ms) is sampled only when the sender was idle at the
// due time, so it measures the generator, not the backlog a slow
// response leaves behind (which send charges to the late requests).
func paced(start time.Time, rate float64, n int, send func(i int, due time.Time)) []float64 {
	interval := time.Duration(float64(time.Second) / rate)
	var late []float64
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * interval)
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
			late = append(late, ms(time.Since(due)))
		}
		send(i, due)
	}
	return late
}

// closedLoop runs workers goroutines that each call send back to back
// until dur has passed, and returns the elapsed wall time, which ends
// when the last call in flight returns.
func closedLoop(workers int, dur time.Duration, send func(worker int)) time.Duration {
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < dur {
				send(w)
			}
		}()
	}
	wg.Wait()
	return time.Since(start)
}
