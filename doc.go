// Package repro is a from-scratch Go reproduction of "Efficient Exact
// Algorithms for Maximum Balanced Biclique Search in Bipartite Graphs"
// (Chen, Liu, Zhou, Xu, Li — PVLDB/SIGMOD 2021 line of work), grown into
// a cancellable, concurrency-safe solver engine.
//
// # Layout
//
// The public API lives in the mbb subpackage; the algorithms live under
// internal/ (see DESIGN.md for the system inventory) and the root-level
// bench_test.go regenerates every table and figure of the paper's
// evaluation (see EXPERIMENTS.md for the measured results).
//
// # Execution engine
//
// Every solve runs on an internal/core.Exec execution context built by
// mbb.SolveContext. It is the single object threaded through all solver
// layers — internal/dense (Algorithms 1–3), internal/sparse (Algorithms
// 4–8), internal/baseline (extBBCL, the adp MBE baselines, brute force)
// and internal/heur — and it carries four concerns:
//
//   - cancellation: a context.Context polled on the search hot path, so
//     Ctrl-C or a server deadline aborts any solver promptly with the
//     best-so-far result;
//   - budgets: wall-clock deadlines and node limits consumed through one
//     atomic counter, safe under any number of workers;
//   - the shared incumbent: an atomic balanced-size that every layer
//     reads while pruning, so an improvement found by one verification
//     worker instantly tightens the bounds inside all the others;
//   - statistics: mutex-guarded aggregation of the per-step counters the
//     experiment harness reports.
//
// Solvers are registered by name (mbb.Solvers, mbb.Lookup, mbb.Register)
// and selected with mbb.Options.Solver; cmd/mbbsolve, cmd/mbbbench, the
// benchmarks and internal/exp all resolve solvers through that one
// registry. The sparse framework's bridging and verification steps
// (Algorithms 6 and 8) run as a streaming producer/consumer pipeline
// over a bounded channel: peak memory is O(workers) vertex-centred
// subgraphs rather than all of them, sequential when Options.Workers <= 1
// (the paper's schedule) and a worker pool otherwise, with identical
// optima either way.
//
// # Planner
//
// Ahead of any exact solver, mbb.SolveContext can run a reduce-and-conquer
// planner (mbb.Options.Reduce; on by default for the "auto" solver):
//
//	heuristic → reduce → decompose → solve → remap
//
// A greedy heuristic seeds the shared incumbent with a lower bound τ;
// the planner peels every vertex that provably cannot belong to a
// balanced biclique larger than τ — the (τ+1)-core intersected with the
// 2τ+1 bicore threshold of internal/decomp, iterated to a fixed point —
// splits the survivor into connected components (bigraph.Components),
// solves the components concurrently largest-first on the shared
// execution context, and remaps the winner to the original vertex ids.
// The reduction is optimum-preserving, so every registered exact solver
// returns the same balanced size with the planner on or off; the
// differential fuzz harness (mbb's FuzzSolversAgree and its ≥50-case
// seeded corpus) checks exactly that agreement against the brute-force
// oracle on every test run.
//
// # Serving layer
//
// cmd/mbbserved and internal/server turn the library into a long-running
// HTTP JSON service:
//
//	store (parsed graph) → cached plan (τ, reduction, components) →
//	scheduler (bounded workers) → core.Exec (budget, cancellation)
//
// Graphs are uploaded once into a named store; the planner's
// preprocessing phase is split out as a cacheable mbb.Plan
// (mbb.PlanContext / Plan.SolveContext), built at most once per graph
// version and shared by every subsequent query, so heavy traffic
// amortizes parsing and reduction instead of redoing them per request.
// Solve jobs run on a bounded worker pool, each on its own execution
// context with per-job budgets, cancelable via DELETE /jobs/{id} or
// client disconnect. The ingestion path (bigraph.ReadKONECT and
// friends) is hardened for untrusted input — hint-bound checks,
// surfaced scanner errors, pre-allocation vertex caps — and fuzzed by
// FuzzReadKONECT's parse→write→reparse round trip.
//
// Served graphs are mutable: POST/DELETE /graphs/{name}/edges apply
// edge batches (bigraph.Delta, bigraph.Graph.Apply) as copy-on-write
// snapshots with a monotone epoch counter. Jobs pin the snapshot
// current at submission, so a solve never observes a half-applied batch
// and its result is exact for the epoch it reports. The cached plan
// follows mutations without a planner rerun (mbb.Plan.ApplyDelta):
// deletion-only batches that spare the heuristic witness carry it
// across unchanged, insertion batches are absorbed by bounded local
// repair of the peeling certificates (decomp.RepairMask re-admits only
// vertices the batch could have restored), and only witness hits or
// over-budget repairs schedule a background rebuild as stale-but-exact
// solves continue on prior snapshots. FuzzGraphApply checks the delta
// path against a from-scratch rebuild and FuzzPlanMaintain checks
// maintained plans against cold plans and the brute-force oracle. See
// DESIGN.md §6–7 for the API, a curl quick-start and the maintenance
// rules; the benchmark in bench/ (bash bench/run.sh) measures the
// daemon under load and mutations beside solves.
//
// The daemon is durable and clusterable. With -data-dir, every
// upload/mutation/delete is appended to a write-ahead delta log
// (internal/wal, versioned codec in internal/bigraph) before it
// becomes visible, with group-commit fsync, checkpoint/compaction and
// exact crash recovery; ?epoch=E answers against a retained window of
// past versions (DESIGN.md §10). With -cluster-peers, workers shard
// the store over a static consistent-hash ring and replicate each
// owner's WAL to its followers as a delta stream (internal/cluster),
// while a stateless -coordinator front-end routes mutations to shard
// owners and fans solves across ready replicas; replicas that lag
// shed reads rather than serve stale epochs, so every answer remains
// exact for the epoch it reports cluster-wide (DESIGN.md §11,
// docs/operations.md for the operator runbooks).
package repro
