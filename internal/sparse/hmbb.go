package sparse

import (
	"repro/internal/bigraph"
	"repro/internal/decomp"
	"repro/internal/heur"
)

// hMBB is step 1 of the framework (Algorithm 5): a max-degree greedy
// heuristic, the Lemma 4 core reduction, the Lemma 5 early-termination
// check, and a second pass with the max-core greedy rule on the reduced
// graph. It returns the reduced graph (in its own id space with a
// newToOld table into the original graph) and done=true when optimality
// is already proven.
//
// Lemma 4: with an incumbent of balanced size s, any strictly larger
// balanced biclique has s+1 vertices of degree ≥ s+1 on each side, so all
// of its vertices lie in the (s+1)-core.
//
// Lemma 5: a balanced biclique of size t is a subgraph of minimum degree
// t, so t ≤ δ(G); an incumbent of size δ(G) is therefore optimal.
func (s *state) hMBB() (reduced *bigraph.Graph, newToOld []int, done bool) {
	g := s.g
	if s.opt.SkipHeuristic {
		// Variant bd1: no heuristic, no global reduction; step 2 works on
		// the whole graph.
		newToOld = bigraph.IdentityMap(g.NumVertices())
		return g, newToOld, false
	}

	// Max-degree greedy.
	s.improve(heur.Greedy(g, nil, s.opt.Seeds))

	if s.opt.SkipCoreOpts {
		// Variant bd2: keep the heuristic but skip every core-based
		// reduction and the core-greedy pass.
		newToOld = bigraph.IdentityMap(g.NumVertices())
		return g, newToOld, false
	}

	cores := decomp.Cores(g)
	if s.bestSize() >= cores.Degeneracy() {
		return nil, nil, true // Lemma 5 on the original graph
	}
	// Lemma 4 reduction.
	mask := decomp.KCoreMask(g, s.bestSize()+1)
	reduced, newToOld = g.InducedByMask(mask)
	if reduced.NumVertices() == 0 {
		return nil, nil, true
	}

	// Max-core greedy on the reduced graph.
	rcores := decomp.Cores(reduced)
	bc := heur.Greedy(reduced, rcores.Core, s.opt.Seeds)
	if s.improve(remap(bc, newToOld)) {
		if s.bestSize() >= rcores.Degeneracy() {
			return nil, nil, true // Lemma 5 on the reduced graph
		}
		// Reduce again with the improved incumbent.
		mask2 := decomp.KCoreMask(reduced, s.bestSize()+1)
		reduced2, n2 := reduced.InducedByMask(mask2)
		if reduced2.NumVertices() == 0 {
			return nil, nil, true
		}
		bigraph.ComposeMap(n2, newToOld)
		return reduced2, n2, false
	}
	return reduced, newToOld, false
}
