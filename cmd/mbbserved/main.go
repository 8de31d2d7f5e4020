// Command mbbserved is the long-running solve service: it keeps parsed
// graphs and their reduce-and-conquer plans in a named store and runs
// solve jobs on a bounded worker pool, so heavy query traffic amortizes
// parsing and reduction instead of redoing them per request.
//
// Usage:
//
//	mbbserved [-addr :8080] [-workers N] [-queue 256] [-store dir]
//	          [-data-dir dir] [-wal-sync always|interval|off]
//	          [-wal-sync-interval 100ms] [-wal-segment-bytes N]
//	          [-checkpoint-every 4096] [-retain-epochs 8]
//	          [-warm-recovery] [-maxupload 67108864] [-maxverts 10000000]
//	          [-default-timeout 30s] [-max-timeout 10m]
//	          [-drain-timeout 30s] [-request-timeout 0] [-pprof]
//	          [-access-log stderr|none|PATH]
//	          [-cluster-peers URL,URL,...] [-cluster-self URL]
//	          [-replication 2] [-max-replica-lag 5s] [-ring-vnodes 64]
//	mbbserved -coordinator -cluster-peers URL,URL,... [-addr :8080]
//	          [-replication 2] [-ring-vnodes 64] [-probe-interval 1s]
//
// With -data-dir the store is durable: every upload, mutation and
// delete is appended to a write-ahead log under that directory before
// it becomes visible, and a restart replays the log — checkpoints plus
// deltas — back to exactly the last durable epoch before the listener
// opens. -wal-sync picks the fsync policy (always = group commit per
// write, interval = background flush every -wal-sync-interval, off =
// the OS decides), -checkpoint-every bounds log growth by snapshotting
// and compacting in the background, and -retain-epochs keeps that many
// trailing snapshots per graph solvable and exportable via ?epoch=E.
//
// -addr may end in ":0" to bind an ephemeral port; the actual listening
// address is logged ("mbbserved: listening on ..."), which is how the
// e2e smoke script discovers it without racing other daemons for a
// hard-coded port.
//
// Every request gets an X-Request-Id (inbound ids are honored), panics
// become 500s, access lines flow through a non-blocking ring buffer,
// GET /metrics serves Prometheus text, and -pprof mounts /debug/pprof.
//
// Cluster mode shards graphs across workers by consistent hashing on
// the graph name. Start every worker with the same -cluster-peers list
// (its own URL named via -cluster-self) and a -data-dir, and one
// -coordinator process with the same peer list fronting them: the
// coordinator routes mutations to each graph's shard owner, fans solves
// across the ready replicas that tail the owner's /replicate delta
// stream, and converts per-shard queue depth and replication lag into
// 429/503 + Retry-After admission decisions. Workers refuse misdirected
// mutations (421 naming the owner) and lag-bounded replica solves (503
// once -max-replica-lag is exceeded), and /readyz distinguishes a live
// process (/healthz) from one that should receive traffic. DESIGN.md
// §11 has the architecture and failure matrix; docs/operations.md has
// the bring-up runbook.
//
// On SIGTERM/SIGINT the daemon drains: new solve submissions get 503 +
// Retry-After while queued and running jobs finish (up to
// -drain-timeout, then they are canceled), read endpoints stay live
// throughout, and only then does the listener close. A listener error
// takes the same shutdown path, so workers and in-flight jobs are
// always stopped — never leaked behind an early exit.
//
// Quick start:
//
//	mbbserved -addr :8080 &
//	printf '3 3 9\n0 0\n0 1\n0 2\n1 0\n1 1\n1 2\n2 0\n2 1\n2 2\n' |
//	    curl -sT- 'http://localhost:8080/graphs/k33'
//	curl -s -XPOST 'http://localhost:8080/graphs/k33/solve' -d '{"timeout":"5s"}'
//	# mutate: add/remove edge batches; each bump publishes a new epoch
//	curl -s -XPOST 'http://localhost:8080/graphs/k33/edges' -d '{"del":[[2,2]]}'
//
// See DESIGN.md §6–7 for the API and snapshot/epoch model, §9 for the
// middleware stack, metrics inventory and drain sequence.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/server"
)

func main() { os.Exit(run()) }

func run() int {
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", 0, "solve worker pool size = concurrent-solve cap (0 = GOMAXPROCS)")
	queue := flag.Int("queue", 256, "job queue depth (admission bound)")
	storeDir := flag.String("store", "", "directory of graphs to preload (*.konect/out.* as KONECT, else edge-list)")
	dataDir := flag.String("data-dir", "", "write-ahead-log directory; empty = no durability")
	walSync := flag.String("wal-sync", "always", "WAL fsync policy: always (group commit), interval, or off")
	walSyncInterval := flag.Duration("wal-sync-interval", 100*time.Millisecond, "flush period under -wal-sync=interval")
	walSegBytes := flag.Int64("wal-segment-bytes", 64<<20, "WAL segment rotation threshold in bytes")
	ckptEvery := flag.Int("checkpoint-every", 4096, "background checkpoint+compaction after this many WAL appends (-1 = never)")
	retainEpochs := flag.Int("retain-epochs", 8, "per-graph trailing snapshot epochs kept solvable via ?epoch=E")
	warmRecovery := flag.Bool("warm-recovery", true, "build plans eagerly during WAL replay so recovery lands warm")
	maxUpload := flag.Int64("maxupload", 64<<20, "max graph upload size in bytes")
	maxVerts := flag.Int("maxverts", 10_000_000, "max vertices per uploaded graph (-1 = only the int32 id range)")
	defTimeout := flag.Duration("default-timeout", 30*time.Second, "per-job timeout when the request sets none (-1ns = none)")
	maxTimeout := flag.Duration("max-timeout", 10*time.Minute, "hard cap on any per-job timeout (-1ns = no cap)")
	maxJobWorkers := flag.Int("max-job-workers", 0, "clamp on a job's requested goroutine budget (0 = 4xGOMAXPROCS, -1 = no cap)")
	reqTimeout := flag.Duration("request-timeout", 0, "blanket per-request context timeout (0 = none; must exceed pprof profile durations)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "how long SIGTERM waits for in-flight jobs before canceling them")
	cancelWait := flag.Duration("cancel-wait", 30*time.Second, "bound on waiting for a canceled job after a sync client disconnect (-1ns = unbounded)")
	accessLog := flag.String("access-log", "stderr", "access-log sink: stderr, none, or a file path (appended)")
	enablePprof := flag.Bool("pprof", false, "mount /debug/pprof/ profiling endpoints")
	coordinator := flag.Bool("coordinator", false, "run the cluster routing front-end instead of a worker")
	clusterPeers := flag.String("cluster-peers", "", "comma-separated worker URLs forming the hash ring (enables cluster mode)")
	clusterSelf := flag.String("cluster-self", "", "this worker's URL as it appears in -cluster-peers")
	replication := flag.Int("replication", 2, "workers holding each graph, shard owner included")
	maxReplicaLag := flag.Duration("max-replica-lag", 5*time.Second, "replica staleness bound before solves 503 (-1ns = unbounded)")
	ringVnodes := flag.Int("ring-vnodes", 0, "virtual nodes per worker on the hash ring (0 = 64; must match cluster-wide)")
	probeInterval := flag.Duration("probe-interval", time.Second, "coordinator /readyz poll period")
	flag.Parse()

	if *coordinator {
		return runCoordinator(*addr, *clusterPeers, *ringVnodes, *replication, *probeInterval)
	}

	logW, logClose, err := accessLogWriter(*accessLog)
	if err != nil {
		log.Printf("mbbserved: %v", err)
		return 1
	}
	if logClose != nil {
		defer logClose()
	}

	srv, err := server.New(server.Options{
		Workers:         *workers,
		QueueCap:        *queue,
		MaxUploadBytes:  *maxUpload,
		MaxVertices:     *maxVerts,
		DefaultTimeout:  *defTimeout,
		MaxTimeout:      *maxTimeout,
		MaxJobWorkers:   *maxJobWorkers,
		StoreDir:        *storeDir,
		DataDir:         *dataDir,
		WALSync:         *walSync,
		WALSyncInterval: *walSyncInterval,
		WALSegmentBytes: *walSegBytes,
		CheckpointEvery: *ckptEvery,
		RetainEpochs:    *retainEpochs,
		WarmRecovery:    *warmRecovery,
		RequestTimeout:  *reqTimeout,
		MaxReplicaLag:   *maxReplicaLag,
		CancelWait:      *cancelWait,
		AccessLog:       logW,
		EnablePprof:     *enablePprof,
	})
	if err != nil {
		log.Printf("mbbserved: %v", err)
		return 1
	}
	if *dataDir != "" {
		rs := srv.RecoveredStats()
		log.Printf("mbbserved: recovered %d graphs from %s (%d segments, %d records: %d puts, %d snaps, %d deltas; %d plans warmed, %d carried; %d bytes torn tail truncated)",
			rs.Graphs, *dataDir, rs.Segments, rs.Records, rs.Puts, rs.Snaps, rs.Deltas, rs.PlanWarmed, rs.PlansCarried, rs.TruncatedBytes)
	}
	if *storeDir != "" {
		rep := srv.PreloadReport()
		log.Printf("mbbserved: preloaded %d graphs from %s (%d files skipped)", rep.Loaded, *storeDir, len(rep.Failed))
	}

	// Cluster worker mode: join the ring and tail the peers' delta
	// streams. The ClusterInfo must be installed before the listener
	// opens so the first request already sees ownership and lag gates.
	var tm *cluster.TailManager
	if *clusterPeers != "" {
		if *dataDir == "" {
			log.Printf("mbbserved: cluster workers need -data-dir (the WAL is the replication stream)")
			srv.Close()
			return 1
		}
		peers, perr := cluster.ParsePeers(*clusterPeers)
		if perr != nil {
			log.Printf("mbbserved: %v", perr)
			srv.Close()
			return 1
		}
		tm, err = cluster.NewTailManager(srv.Store(), cluster.Config{
			Self:        cluster.NormalizeURL(*clusterSelf),
			Peers:       peers,
			Vnodes:      *ringVnodes,
			Replication: *replication,
			Warm:        *warmRecovery,
		})
		if err != nil {
			log.Printf("mbbserved: %v", err)
			srv.Close()
			return 1
		}
		srv.SetCluster(tm)
		log.Printf("mbbserved: cluster worker %s on a %d-node ring (replication %d)",
			cluster.NormalizeURL(*clusterSelf), len(peers), *replication)
	}

	hs := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	// Listen before serving so ":0" resolves to a concrete port and the
	// logged address is always dialable.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Printf("mbbserved: %v", err)
		srv.Close()
		return 1
	}
	if tm != nil {
		tm.Start()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() {
		log.Printf("mbbserved: listening on %s", ln.Addr())
		errCh <- hs.Serve(ln)
	}()

	// Both exits — a Serve failure and a shutdown signal — funnel into
	// the same drain sequence below, so scheduler workers and in-flight
	// jobs are stopped on every path.
	exit := 0
	select {
	case err := <-errCh:
		log.Printf("mbbserved: serve: %v", err)
		exit = 1
	case <-ctx.Done():
		stop() // a second signal kills us the blunt way
		log.Printf("mbbserved: signal received, draining (timeout %v)", *drainTimeout)
	}

	// Drain: stop admitting (503 + Retry-After), let in-flight jobs
	// finish while the listener still serves reads and job polls, then
	// close the listener and cancel whatever outlasted the deadline.
	srv.BeginDrain()
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.WaitIdle(drainCtx); err != nil {
		log.Printf("mbbserved: drain deadline: canceling %d unfinished jobs", srv.Scheduler().Live())
	}
	shutCtx, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	if err := hs.Shutdown(shutCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("mbbserved: shutdown: %v", err)
	}
	if tm != nil {
		tm.Close()
	}
	srv.Close()
	log.Printf("mbbserved: drained, bye")
	return exit
}

// runCoordinator serves the cluster routing front-end: no store, no
// WAL — just readiness probes and request routing over the worker ring.
func runCoordinator(addr, peerSpec string, vnodes, replication int, probeInterval time.Duration) int {
	peers, err := cluster.ParsePeers(peerSpec)
	if err != nil {
		log.Printf("mbbserved: -coordinator needs -cluster-peers: %v", err)
		return 1
	}
	coord, err := cluster.NewCoordinator(cluster.CoordinatorConfig{
		Peers:         peers,
		Vnodes:        vnodes,
		Replication:   replication,
		ProbeInterval: probeInterval,
	})
	if err != nil {
		log.Printf("mbbserved: %v", err)
		return 1
	}
	coord.Start()
	hs := &http.Server{
		Handler:           server.Chain(coord.Handler(), server.RequestID),
		ReadHeaderTimeout: 10 * time.Second,
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		log.Printf("mbbserved: %v", err)
		coord.Close()
		return 1
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() {
		log.Printf("mbbserved: coordinator listening on %s (%d workers, replication %d)", ln.Addr(), len(peers), replication)
		errCh <- hs.Serve(ln)
	}()
	exit := 0
	select {
	case err := <-errCh:
		log.Printf("mbbserved: serve: %v", err)
		exit = 1
	case <-ctx.Done():
		stop()
		log.Printf("mbbserved: signal received, shutting down coordinator")
	}
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hs.Shutdown(shutCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("mbbserved: shutdown: %v", err)
	}
	coord.Close()
	log.Printf("mbbserved: coordinator stopped, bye")
	return exit
}

// accessLogWriter resolves the -access-log flag.
func accessLogWriter(spec string) (io.Writer, func() error, error) {
	switch spec {
	case "stderr":
		return os.Stderr, nil, nil
	case "none", "":
		return nil, nil, nil
	default:
		f, err := os.OpenFile(spec, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, nil, fmt.Errorf("access log: %w", err)
		}
		return f, f.Close, nil
	}
}
