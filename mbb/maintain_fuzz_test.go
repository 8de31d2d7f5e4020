package mbb_test

import (
	"context"
	"slices"
	"testing"

	"repro/internal/baseline"
	"repro/mbb"
)

// The plan-maintenance differential harness: a byte-encoded base graph
// plus a two-round mutation chain is planned cold and carried across via
// Plan.ApplyDelta. Whenever maintenance accepts — deletion-only reuse or
// the bounded local repair of an insertion batch — the maintained plan's
// solve must agree with both a from-scratch PlanContext on the mutated
// graph and the brute-force oracle; the second round specifically
// exercises repairs seeded from the deletion-endpoint log a first-round
// deletion leaves behind. Sides are capped at 7 so the oracle enumerates
// ≤ 2^7 subsets. Bytes decode in pairs as (l, r) indices mod the side
// sizes, so any mutated input is a valid case; the seeded corpus
// includes insertion batches and both DESIGN §7 counterexamples (batch
// resurrection among peeled vertices; a certificate restored through a
// surviving neighbour). CI runs a bounded smoke; the nightly workflow
// fuzzes for minutes.

// checkMaintained verifies one maintained plan against the cold planner
// and the brute-force oracle, for the scalar solve and a top-3 query.
func checkMaintained(t *testing.T, p *mbb.Plan, g *mbb.Graph) {
	t.Helper()
	got, err := p.SolveContext(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := mbb.PlanContextEpoch(context.Background(), g, p.Epoch())
	if err != nil {
		t.Fatal(err)
	}
	want, err := cold.SolveContext(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	oracle := baseline.BruteForceSize(g)
	if !got.Exact || !want.Exact {
		t.Fatalf("inexact results without a budget: %v %v", got.Exact, want.Exact)
	}
	if got.Biclique.Size() != oracle || want.Biclique.Size() != oracle {
		t.Fatalf("maintained %d, rebuilt %d, oracle %d (graph %dx%d/%d)",
			got.Biclique.Size(), want.Biclique.Size(), oracle, g.NL(), g.NR(), g.NumEdges())
	}
	if !got.Biclique.IsBicliqueOf(g) {
		t.Fatal("maintained plan returned a non-biclique of the mutated graph")
	}
	top, err := p.SolveContext(context.Background(), &mbb.Options{TopK: 3})
	if err != nil {
		t.Fatal(err)
	}
	sizes := make([]int, len(top.Bicliques))
	for i, bc := range top.Bicliques {
		sizes[i] = bc.Size()
		if !bc.IsBicliqueOf(g) || !bc.IsBalanced() {
			t.Fatalf("maintained plan's top-3 witness %v is not a balanced biclique of the mutated graph", bc)
		}
	}
	if want := baseline.TopKSizes(nil, g, 3, 0); !slices.Equal(sizes, want) {
		t.Fatalf("maintained plan's top-3 sizes %v, oracle %v (graph %dx%d/%d)",
			sizes, want, g.NL(), g.NR(), g.NumEdges())
	}
}

// maintainCase runs one decoded two-round case, reporting how many
// rounds the maintenance path absorbed.
func maintainCase(t *testing.T, nl, nr int, base [][2]int, rounds []mbb.Delta) int {
	t.Helper()
	g := mbb.FromEdges(nl, nr, base)
	p, err := mbb.PlanContext(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	maintained := 0
	for i, d := range rounds {
		g2, eff, err := g.Apply(d)
		if err != nil {
			t.Fatalf("in-range delta rejected: %v", err)
		}
		p2, ok := p.ApplyDelta(g2, eff, uint64(i+1))
		if !ok {
			break // rebuild required (witness hit or budget): chain ends
		}
		if len(eff.Add) > 0 && p2.Repairs() != p.Repairs()+1 {
			t.Fatalf("insertion batch accepted without a repair: %d -> %d", p.Repairs(), p2.Repairs())
		}
		checkMaintained(t, p2, g2)
		maintained++
		g, p = g2, p2
	}
	return maintained
}

// maintainPairs decodes a byte stream into side-local pairs.
func maintainPairs(nl, nr int, data []byte) [][2]int {
	if nl == 0 || nr == 0 {
		return nil
	}
	var out [][2]int
	for i := 0; i+1 < len(data); i += 2 {
		out = append(out, [2]int{int(data[i]) % nl, int(data[i+1]) % nr})
	}
	return out
}

// maintainSeed is one corpus entry: a base graph and two mutation
// rounds.
type maintainSeed struct {
	nl, nr                     uint8
	base, add, del, add2, del2 []byte
}

// maintainSeeds is the seeded corpus, shared by the plain-test sweep and
// the fuzz target.
func maintainSeeds() []maintainSeed {
	return []maintainSeed{
		// §7 batch resurrection: K3,3 minus (2,2), re-add it.
		{3, 3, []byte{0, 0, 0, 1, 0, 2, 1, 0, 1, 1, 1, 2, 2, 0, 2, 1}, []byte{2, 2}, nil, nil, nil},
		// §7 certificate through a surviving neighbour: K2,2 + pendant,
		// insertion gives the pendant a second surviving neighbour.
		{3, 2, []byte{0, 0, 0, 1, 1, 0, 1, 1, 2, 0}, []byte{2, 1}, nil, nil, nil},
		// Delete-then-insert chain: round 1 deletes a survivor–survivor
		// edge of a K4,4 (logged endpoints), round 2 re-inserts it plus a
		// fringe edge — the repair must be seeded from the log.
		{5, 5, []byte{0, 0, 0, 1, 0, 2, 0, 3, 1, 0, 1, 1, 1, 2, 1, 3, 2, 0, 2, 1, 2, 2, 2, 3, 3, 0, 3, 1, 3, 2, 3, 3, 4, 0}, nil, []byte{2, 3}, []byte{2, 3, 4, 1}, nil},
		// Mixed batch in one round.
		{5, 5, []byte{0, 0, 0, 1, 0, 2, 1, 0, 1, 1, 1, 2, 2, 0, 2, 1, 2, 2, 4, 0}, []byte{4, 1, 4, 2}, []byte{0, 2}, nil, nil},
		// Deletion-only reuse, then another deletion round.
		{4, 4, []byte{0, 0, 0, 1, 1, 0, 1, 1, 2, 2, 2, 3, 3, 2, 3, 3}, nil, []byte{2, 3}, nil, []byte{3, 2}},
		// Insertions merging two components of the reduced graph.
		{6, 6, []byte{0, 0, 0, 1, 0, 2, 1, 0, 1, 1, 1, 2, 2, 0, 2, 1, 2, 2, 3, 3, 3, 4, 3, 5, 4, 3, 4, 4, 4, 5, 5, 3, 5, 4, 5, 5}, []byte{0, 3, 3, 0}, nil, nil, nil},
		// Empty base, insertions assemble everything from nothing.
		{3, 3, nil, []byte{0, 0, 0, 1, 1, 0, 1, 1, 2, 2}, nil, []byte{2, 0}, nil},
		// Degenerate shapes.
		{1, 1, []byte{0, 0}, []byte{0, 0}, []byte{0, 0}, nil, nil},
		{0, 4, nil, nil, nil, nil, nil},
		{7, 7, []byte{1, 2, 3, 4, 5, 6}, []byte{6, 6, 6, 5, 5, 6}, []byte{1, 2}, []byte{0, 0}, nil},
	}
}

// runMaintainSeed decodes and runs one seed, returning the number of
// maintained rounds.
func runMaintainSeed(t *testing.T, nlb, nrb uint8, base, add, del, add2, del2 []byte) int {
	nl, nr := int(nlb%8), int(nrb%8)
	rounds := []mbb.Delta{
		{Add: maintainPairs(nl, nr, add), Del: maintainPairs(nl, nr, del)},
		{Add: maintainPairs(nl, nr, add2), Del: maintainPairs(nl, nr, del2)},
	}
	return maintainCase(t, nl, nr, maintainPairs(nl, nr, base), rounds)
}

// TestPlanMaintainCorpus runs the differential check over the seeded
// corpus in every plain `go test` run.
func TestPlanMaintainCorpus(t *testing.T) {
	maintained := 0
	for i, c := range maintainSeeds() {
		n := runMaintainSeed(t, c.nl, c.nr, c.base, c.add, c.del, c.add2, c.del2)
		if n == 0 {
			t.Logf("seed %d forced a rebuild on round 1", i)
		}
		maintained += n
	}
	if maintained == 0 {
		t.Fatal("no corpus seed exercised the maintenance path")
	}
}

// FuzzPlanMaintain is the open-ended differential fuzz target:
//
//	go test ./mbb -run=FuzzPlanMaintain -fuzz=FuzzPlanMaintain -fuzztime=20s
func FuzzPlanMaintain(f *testing.F) {
	for _, c := range maintainSeeds() {
		f.Add(c.nl, c.nr, c.base, c.add, c.del, c.add2, c.del2)
	}
	f.Fuzz(func(t *testing.T, nlb, nrb uint8, base, add, del, add2, del2 []byte) {
		runMaintainSeed(t, nlb, nrb, base, add, del, add2, del2)
	})
}
