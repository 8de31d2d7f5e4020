package server

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/baseline"
	"repro/internal/bigraph"
	"repro/mbb"
)

// k33minus is K3,3 with the (2,2) edge missing: optimum balanced size 2.
const k33minus = "3 3 8\n0 0\n0 1\n0 2\n1 0\n1 1\n1 2\n2 0\n2 1\n"

// TestMutateEndpoints walks the HTTP mutation lifecycle: insert the
// missing edge (epoch 1, optimum grows to 3), delete a batch (epoch 2,
// optimum shrinks), with each solve reporting the epoch it answered for.
func TestMutateEndpoints(t *testing.T) {
	srv, ts := newTestServer(t, Options{Workers: 2})
	putGraph(t, ts, "m", k33minus, "")

	job := solveSync(t, ts, "m", "")
	if job.Result == nil || job.Result.Size != 2 || !job.Result.Exact || job.Result.Epoch != 0 {
		t.Fatalf("epoch-0 solve: %+v", job.Result)
	}

	resp, data := do(t, http.MethodPost, ts.URL+"/graphs/m/edges", strings.NewReader(`{"add":[[2,2]]}`))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mutate: %d %s", resp.StatusCode, data)
	}
	mi := decode[MutationInfo](t, data)
	if mi.Epoch != 1 || mi.Added != 1 || mi.Removed != 0 || mi.Edges != 9 {
		t.Fatalf("mutation info %+v", mi)
	}
	// A bounded insertion batch is absorbed by local repair of the
	// cached plan (built by the first solve): no full planner rerun.
	if mi.Plan != "repaired" {
		t.Fatalf("insertion reported plan %q, want repaired", mi.Plan)
	}
	info0 := decode[GraphInfo](t, func() []byte { _, d := do(t, http.MethodGet, ts.URL+"/graphs/m", nil); return d }())
	if info0.PlanBuilds != 1 || info0.PlanRepairs != 1 || info0.PlanSource != "repaired" {
		t.Fatalf("after repair: plan_builds=%d plan_repairs=%d plan_source=%q, want 1, 1, repaired",
			info0.PlanBuilds, info0.PlanRepairs, info0.PlanSource)
	}

	job = solveSync(t, ts, "m", "")
	if job.Result == nil || job.Result.Size != 3 || !job.Result.Exact || job.Result.Epoch != 1 {
		t.Fatalf("epoch-1 solve: %+v", job.Result)
	}
	if !job.Result.PlanCached {
		t.Error("solve after repair did not hit the plan cache")
	}

	resp, data = do(t, http.MethodDelete, ts.URL+"/graphs/m/edges",
		strings.NewReader(`{"edges":[[2,0],[2,1],[2,2]]}`))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete edges: %d %s", resp.StatusCode, data)
	}
	mi = decode[MutationInfo](t, data)
	if mi.Epoch != 2 || mi.Removed != 3 || mi.Edges != 6 {
		t.Fatalf("delete mutation info %+v", mi)
	}

	job = solveSync(t, ts, "m", "")
	if job.Result == nil || job.Result.Size != 2 || !job.Result.Exact || job.Result.Epoch != 2 {
		t.Fatalf("epoch-2 solve: %+v", job.Result)
	}

	info := decode[GraphInfo](t, func() []byte { _, d := do(t, http.MethodGet, ts.URL+"/graphs/m", nil); return d }())
	if info.Epoch != 2 || info.Mutations != 2 || info.Edges != 6 {
		t.Fatalf("graph info after mutations: %+v", info)
	}
	if got := srv.Store(); got.Len() != 1 {
		t.Fatalf("store len %d", got.Len())
	}
}

// TestMutateEndpointErrors: malformed and out-of-contract mutation
// requests answer clean 4xx codes.
func TestMutateEndpointErrors(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	putGraph(t, ts, "m", k33minus, "")
	cases := []struct {
		method, body string
		want         int
	}{
		{http.MethodPost, `{"add":[[9,9]]}`, http.StatusBadRequest},   // out of range
		{http.MethodPost, `{"add":[[-1,0]]}`, http.StatusBadRequest},  // negative
		{http.MethodPost, `{}`, http.StatusBadRequest},                // empty mutation
		{http.MethodPost, ``, http.StatusBadRequest},                  // empty body
		{http.MethodPost, `{"edges":[[0,0]]}`, http.StatusBadRequest}, // DELETE-only field
		{http.MethodPost, `not json`, http.StatusBadRequest},          // garbage
		{http.MethodPost, `{"bogus":1}`, http.StatusBadRequest},       // unknown field
		{http.MethodDelete, `{"add":[[0,0]]}`, http.StatusBadRequest}, // add on DELETE
		{http.MethodDelete, `{}`, http.StatusBadRequest},              // empty
	}
	for _, tc := range cases {
		resp, data := do(t, tc.method, ts.URL+"/graphs/m/edges", strings.NewReader(tc.body))
		if resp.StatusCode != tc.want {
			t.Errorf("%s %q: status %d (%s), want %d", tc.method, tc.body, resp.StatusCode, data, tc.want)
		}
	}
	resp, _ := do(t, http.MethodPost, ts.URL+"/graphs/ghost/edges", strings.NewReader(`{"add":[[0,0]]}`))
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("mutate unknown graph: %d", resp.StatusCode)
	}
	// The graph is untouched by all the failures above.
	info := decode[GraphInfo](t, func() []byte { _, d := do(t, http.MethodGet, ts.URL+"/graphs/m", nil); return d }())
	if info.Epoch != 0 || info.Mutations != 0 || info.Edges != 8 {
		t.Errorf("graph changed by failed mutations: %+v", info)
	}
}

// TestMutationPlanReuse: a deletion-only mutation that spares the
// heuristic witness carries the cached plan across the epoch bump — no
// second planner run — and the maintained plan still solves exactly.
func TestMutationPlanReuse(t *testing.T) {
	srv, ts := newTestServer(t, Options{Workers: 2})
	g := mbb.GeneratePowerLaw(120, 120, 700, 6)
	var sb strings.Builder
	if err := mbb.WriteGraph(&sb, g); err != nil {
		t.Fatal(err)
	}
	putGraph(t, ts, "pl", sb.String(), "")
	solveSync(t, ts, "pl", "") // builds the plan

	sg, _ := srv.Store().Get("pl")
	// Delete low-degree fringe edges: overwhelmingly likely to be outside
	// the witness, so the plan should survive. Walk candidates until one
	// mutation reports reuse.
	reused := false
	edges := g.Edges()
	for i := 0; i < 10 && !reused; i++ {
		e := edges[(i*37)%len(edges)]
		body := fmt.Sprintf(`{"del":[[%d,%d]]}`, e[0], e[1])
		resp, data := do(t, http.MethodPost, ts.URL+"/graphs/pl/edges", strings.NewReader(body))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("mutate: %d %s", resp.StatusCode, data)
		}
		mi := decode[MutationInfo](t, data)
		if mi.Plan == "reused" {
			reused = true
		}
	}
	if !reused {
		t.Fatal("no deletion mutation reused the plan")
	}
	job := solveSync(t, ts, "pl", "")
	if job.Result == nil || !job.Result.Exact {
		t.Fatalf("solve after reuse: %+v", job.Result)
	}
	if !job.Result.PlanCached {
		t.Error("solve after plan reuse did not hit the cache")
	}
	// The graph is too large for the brute-force oracle; a cold planner
	// run on the mutated graph is the differential reference.
	cold, err := mbb.Solve(sg.Graph(), &mbb.Options{Reduce: mbb.ReduceOn})
	if err != nil {
		t.Fatal(err)
	}
	if job.Result.Size != cold.Biclique.Size() {
		t.Errorf("maintained plan found %d, cold planner found %d", job.Result.Size, cold.Biclique.Size())
	}
	if sg.Info().PlanReuses < 1 {
		t.Errorf("plan_reuses = %d, want >= 1", sg.Info().PlanReuses)
	}
}

// TestMutationPlanRepair: a mutation on a planned graph keeps its plan
// without a second planner run. An insertion batch is absorbed by
// bounded local repair; a one-edge deletion whose left endpoint lies
// outside the heuristic witness carries the plan across unchanged. Either
// way plan_builds stays at 1, the store counts the outcome, and the
// maintained plan still solves exactly (checked against a cold planner
// run on the mutated graph).
func TestMutationPlanRepair(t *testing.T) {
	for _, tc := range []struct {
		name            string
		delta           func(g *bigraph.Graph, seed mbb.Biclique) bigraph.Delta
		plan            string // MutationInfo.Plan
		source          string // GraphInfo.PlanSource
		repairs, reuses int64
	}{
		{"insert", func(g *bigraph.Graph, _ mbb.Biclique) bigraph.Delta {
			// A batch of fresh edges; a pristine plan must repair.
			var adds [][2]int
			for l := 0; l < g.NL() && len(adds) < 3; l++ {
				for r := 0; r < g.NR() && len(adds) < 3; r++ {
					if !g.HasEdge(l, g.NL()+r) {
						adds = append(adds, [2]int{l, r})
					}
				}
			}
			return bigraph.Delta{Add: adds}
		}, "repaired", "repaired", 1, 0},
		{"delete-outside-witness", func(g *bigraph.Graph, seed mbb.Biclique) bigraph.Delta {
			inSeed := make(map[int]bool, len(seed.A))
			for _, v := range seed.A {
				inSeed[v] = true
			}
			for _, e := range g.Edges() {
				if !inSeed[e[0]] {
					return bigraph.Delta{Del: [][2]int{e}}
				}
			}
			return bigraph.Delta{}
		}, "reused", "inherited", 0, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv, ts := newTestServer(t, Options{Workers: 2})
			g := mbb.GeneratePowerLaw(100, 100, 600, 9)
			var sb strings.Builder
			if err := mbb.WriteGraph(&sb, g); err != nil {
				t.Fatal(err)
			}
			putGraph(t, ts, "pr", sb.String(), "")
			solveSync(t, ts, "pr", "") // builds the plan

			sg, _ := srv.Store().Get("pr")
			plan, _, err := sg.Snapshot().Plan()
			if err != nil {
				t.Fatal(err)
			}
			d := tc.delta(g, plan.Seed())
			if d.Empty() {
				t.Fatal("no mutation to apply")
			}
			body, err := json.Marshal(d)
			if err != nil {
				t.Fatal(err)
			}
			resp, data := do(t, http.MethodPost, ts.URL+"/graphs/pr/edges", strings.NewReader(string(body)))
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("mutate: %d %s", resp.StatusCode, data)
			}
			mi := decode[MutationInfo](t, data)
			if mi.Plan != tc.plan {
				t.Fatalf("mutation reported plan %q, want %s", mi.Plan, tc.plan)
			}
			info := sg.Info()
			if info.PlanBuilds != 1 {
				t.Fatalf("plan_builds = %d after a %s mutation, want 1", info.PlanBuilds, tc.plan)
			}
			if info.PlanRepairs != tc.repairs || info.PlanReuses != tc.reuses || info.PlanSource != tc.source {
				t.Fatalf("plan_repairs=%d plan_reuses=%d plan_source=%q, want %d, %d and %s",
					info.PlanRepairs, info.PlanReuses, info.PlanSource, tc.repairs, tc.reuses, tc.source)
			}
			job := solveSync(t, ts, "pr", "")
			if job.Result == nil || !job.Result.Exact || job.Result.Epoch != mi.Epoch {
				t.Fatalf("solve after the mutation: %+v", job.Result)
			}
			if !job.Result.PlanCached {
				t.Error("solve after the mutation did not hit the plan cache")
			}
			cold, err := mbb.Solve(sg.Graph(), &mbb.Options{Reduce: mbb.ReduceOn})
			if err != nil {
				t.Fatal(err)
			}
			if job.Result.Size != cold.Biclique.Size() {
				t.Errorf("maintained plan found %d, cold planner found %d", job.Result.Size, cold.Biclique.Size())
			}
		})
	}
}

// TestJobPinsSnapshot: a job submitted before a mutation solves the
// snapshot it was submitted against, even when it only starts running
// after the mutation landed.
func TestJobPinsSnapshot(t *testing.T) {
	srv, err := New(Options{Workers: 1, QueueCap: 8, DefaultTimeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	blockG := mbb.GenerateDense(46, 46, 0.93, 3)
	blockSG, err := srv.Store().Put("block", blockG)
	if err != nil {
		t.Fatal(err)
	}
	sg, err := srv.Store().Put("k", mustParse(t, k33minus))
	if err != nil {
		t.Fatal(err)
	}

	// Occupy the single worker so the real job stays queued across the
	// mutation.
	blocker, err := srv.Scheduler().Submit(blockSG, SolveRequest{Solver: "basicBB", Timeout: "5m"})
	if err != nil {
		t.Fatal(err)
	}
	pinned, err := srv.Scheduler().Submit(sg, SolveRequest{})
	if err != nil {
		t.Fatal(err)
	}
	// Mutate while the job is queued: add the missing edge (optimum 3 at
	// epoch 1; the pinned snapshot's optimum stays 2).
	if _, mi, err := sg.Mutate(bigraph.Delta{Add: [][2]int{{2, 2}}}); err != nil || mi.Epoch != 1 {
		t.Fatalf("mutate: %+v %v", mi, err)
	}
	srv.Scheduler().Cancel(blocker.ID())
	<-blocker.Done()
	<-pinned.Done()
	res := pinned.Info().Result
	if res == nil || !res.Exact || res.Epoch != 0 || res.Size != 2 {
		t.Fatalf("pinned job result %+v, want exact size 2 at epoch 0", res)
	}
}

func mustParse(t *testing.T, text string) *bigraph.Graph {
	t.Helper()
	g, err := bigraph.Read(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestConcurrentMutateSolveExactPerEpoch is the acceptance test of the
// snapshot model under -race: mutators and solvers run concurrently, and
// every returned result must be exact and equal the brute-force optimum
// of the *published snapshot epoch it reports* — never a torn view, never
// a result for an epoch that was not published.
func TestConcurrentMutateSolveExactPerEpoch(t *testing.T) {
	srv, err := New(Options{Workers: 4, QueueCap: 256, DefaultTimeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	g := mbb.GeneratePowerLaw(7, 7, 24, 2)
	sg, err := srv.Store().Put("g", g)
	if err != nil {
		t.Fatal(err)
	}

	// oracle[epoch] = brute-force optimum of the snapshot published at
	// that epoch. The mutator records each snapshot it publishes; solver
	// results are checked against the map after everything drains.
	var (
		oracleMu sync.Mutex
		oracle   = map[uint64]int{0: baseline.BruteForceSize(g)}
	)

	const (
		mutations       = 40
		solvers         = 3
		solvesPerSolver = 15
	)
	var wg sync.WaitGroup
	errCh := make(chan error, solvers+1)

	wg.Add(1)
	go func() { // mutator: serialized epochs, random add/del batches
		defer wg.Done()
		rng := rand.New(rand.NewSource(5))
		for i := 0; i < mutations; i++ {
			var d bigraph.Delta
			cur := sg.Graph()
			edges := cur.Edges()
			for k := 0; k < 1+rng.Intn(3); k++ {
				if rng.Intn(2) == 0 && len(edges) > 0 {
					d.Del = append(d.Del, edges[rng.Intn(len(edges))])
				} else {
					d.Add = append(d.Add, [2]int{rng.Intn(7), rng.Intn(7)})
				}
			}
			snap, _, err := sg.Mutate(d)
			if err != nil {
				errCh <- err
				return
			}
			oracleMu.Lock()
			if _, seen := oracle[snap.Epoch()]; !seen {
				oracle[snap.Epoch()] = baseline.BruteForceSize(snap.Graph())
			}
			oracleMu.Unlock()
		}
	}()

	type outcome struct {
		epoch uint64
		size  int
		exact bool
	}
	results := make(chan outcome, solvers*solvesPerSolver)
	for w := 0; w < solvers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < solvesPerSolver; i++ {
				req := SolveRequest{}
				if i%2 == 1 {
					req.Reduce = "off" // exercise the non-plan path too
				}
				job, err := srv.Scheduler().Submit(sg, req)
				if err != nil {
					errCh <- err
					return
				}
				<-job.Done()
				res := job.Info().Result
				if res == nil {
					errCh <- fmt.Errorf("solver %d: job %s finished without result: %+v", w, job.ID(), job.Info())
					return
				}
				results <- outcome{epoch: res.Epoch, size: res.Size, exact: res.Exact}
			}
		}(w)
	}
	wg.Wait()
	close(results)
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	n := 0
	for res := range results {
		n++
		want, ok := oracle[res.epoch]
		if !ok {
			t.Fatalf("result reports epoch %d, which was never published", res.epoch)
		}
		if !res.exact {
			t.Errorf("solve at epoch %d not exact", res.epoch)
		}
		if res.size != want {
			t.Errorf("solve at epoch %d found %d, oracle says %d", res.epoch, res.size, want)
		}
	}
	if n != solvers*solvesPerSolver {
		t.Fatalf("collected %d results, want %d", n, solvers*solvesPerSolver)
	}
	if sg.Info().Mutations == 0 {
		t.Fatal("no mutation took effect")
	}
}

// TestConcurrentInsertRepairExactPerEpoch drives the repair path under
// -race: a mutator publishes insertion-only batches (each absorbed by
// bounded local repair on the pristine plan chain) while solver
// goroutines call Snapshot.Plan and solve concurrently. Every result
// must be exact and match the brute-force optimum of the epoch it
// reports — repaired plans must solve identically to fresh plans.
func TestConcurrentInsertRepairExactPerEpoch(t *testing.T) {
	srv, err := New(Options{Workers: 4, QueueCap: 256, DefaultTimeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	g := mbb.GeneratePowerLaw(7, 7, 16, 4)
	sg, err := srv.Store().Put("g", g)
	if err != nil {
		t.Fatal(err)
	}
	// Build the epoch-0 plan up front so every mutation sees a cached
	// plan to repair.
	if _, _, err := sg.Snapshot().Plan(); err != nil {
		t.Fatal(err)
	}

	var (
		oracleMu sync.Mutex
		oracle   = map[uint64]int{0: baseline.BruteForceSize(g)}
	)
	const (
		mutations       = 30
		solvers         = 3
		solvesPerSolver = 12
	)
	var wg sync.WaitGroup
	errCh := make(chan error, solvers+1)

	wg.Add(1)
	go func() { // mutator: insertion-only batches
		defer wg.Done()
		rng := rand.New(rand.NewSource(6))
		for i := 0; i < mutations; i++ {
			var d bigraph.Delta
			for k := 0; k < 1+rng.Intn(3); k++ {
				d.Add = append(d.Add, [2]int{rng.Intn(7), rng.Intn(7)})
			}
			snap, _, err := sg.Mutate(d)
			if err != nil {
				errCh <- err
				return
			}
			oracleMu.Lock()
			if _, seen := oracle[snap.Epoch()]; !seen {
				oracle[snap.Epoch()] = baseline.BruteForceSize(snap.Graph())
			}
			oracleMu.Unlock()
		}
	}()

	type outcome struct {
		epoch uint64
		size  int
		exact bool
	}
	results := make(chan outcome, solvers*solvesPerSolver)
	for w := 0; w < solvers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < solvesPerSolver; i++ {
				job, err := srv.Scheduler().Submit(sg, SolveRequest{})
				if err != nil {
					errCh <- err
					return
				}
				<-job.Done()
				res := job.Info().Result
				if res == nil {
					errCh <- fmt.Errorf("job %s finished without result: %+v", job.ID(), job.Info())
					return
				}
				results <- outcome{epoch: res.Epoch, size: res.Size, exact: res.Exact}
			}
		}()
	}
	wg.Wait()
	close(results)
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	for res := range results {
		want, ok := oracle[res.epoch]
		if !ok {
			t.Fatalf("result reports epoch %d, which was never published", res.epoch)
		}
		if !res.exact {
			t.Errorf("solve at epoch %d not exact", res.epoch)
		}
		if res.size != want {
			t.Errorf("solve at epoch %d found %d, oracle says %d", res.epoch, res.size, want)
		}
	}
	info := sg.Info()
	if info.PlanRepairs == 0 {
		t.Fatal("no insertion batch was absorbed by repair")
	}
	if info.PlanBuilds != 1 {
		t.Errorf("plan_builds = %d under insertion-only mutation, want 1 (all repairs)", info.PlanBuilds)
	}
}
