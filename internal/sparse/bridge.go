package sparse

import (
	"sync"

	"repro/internal/bigraph"
	"repro/internal/core"
	"repro/internal/decomp"
	"repro/internal/heur"
)

// centred is a materialised vertex-centred subgraph (Definition 6):
// the centre vertex plus its N≤2 successors in the total search order.
type centred struct {
	sub    *bigraph.Graph
	toOrig []int // sub unified ids → original unified ids
	center int   // centre vertex in sub unified ids
}

// pipeline runs steps 2 and 3 of the framework as a streaming
// producer/consumer. The producer (Algorithm 6) generates one
// vertex-centred subgraph at a time; survivors flow through a bounded
// channel into Options.Workers verification workers (Algorithm 8), so at
// most O(workers) subgraphs are materialised at once. Because every
// improvement is published to the execution context's shared incumbent
// the moment it is found, a worker's result immediately strengthens the
// producer's size/degeneracy prunes and the bounds inside every other
// worker's running dense solve.
func (s *state) pipeline(reduced *bigraph.Graph, newToOld []int) {
	var produced int64
	if s.opt.Workers <= 1 {
		// Sequential pipeline: verify each survivor as it is generated.
		// This is the paper's schedule, except that step-3 improvements
		// now tighten step-2 pruning of the not-yet-generated subgraphs.
		produced = s.produce(reduced, newToOld, func(h centred) { s.verifyOne(h) })
	} else {
		jobs := make(chan centred, s.opt.Workers)
		var wg sync.WaitGroup
		for w := 0; w < s.opt.Workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for h := range jobs {
					s.verifyOne(h)
				}
			}()
		}
		produced = s.produce(reduced, newToOld, func(h centred) { jobs <- h })
		close(jobs)
		wg.Wait()
	}
	if produced == 0 {
		s.step = core.Step2
	} else {
		s.step = core.Step3
	}
}

// produce is step 2 of the framework (Algorithm 6): it computes the total
// search order, generates one vertex-centred subgraph per vertex, prunes
// subgraphs whose size or degeneracy cannot beat the incumbent, runs the
// local core-based greedy heuristic on each survivor to tighten the
// incumbent further, and hands each survivor to emit. reduced is the
// step-1 output graph; newToOld maps its ids to original ids. It returns
// the number of survivors emitted.
func (s *state) produce(reduced *bigraph.Graph, newToOld []int, emit func(centred)) int64 {
	kind := s.opt.Order
	if s.opt.SkipCoreOpts {
		kind = decomp.OrderDegree // peeling orders are core-based
	}

	var order []int
	switch kind {
	case decomp.OrderBidegeneracy:
		bi := decomp.BicoresFast(reduced)
		order = bi.Order
		s.bidegeneracy = bi.Bidegeneracy()
	default:
		order = decomp.Order(reduced, kind)
	}
	pos := make([]int, reduced.NumVertices())
	for i, v := range order {
		pos[v] = i
	}

	th := decomp.NewTwoHop(reduced)
	var stats core.Stats // producer-side counters, flushed on return
	defer func() { s.ex.AddStats(&stats) }()
	var produced int64
	members := make([]int, 0, 64)
	for i, v := range order {
		if !s.ex.Spend() {
			stats.TimedOut = true
			break
		}
		members = members[:0]
		members = append(members, v)
		members = th.Append(v, nil, members)
		// Keep only successors in the order (Observation 5).
		kept := members[:1]
		for _, w := range members[1:] {
			if pos[w] > i {
				kept = append(kept, w)
			}
		}
		stats.Subgraphs++
		// Size prune: each side needs at least best+1 vertices.
		nl, nr := 0, 0
		for _, w := range kept {
			if reduced.IsLeft(w) {
				nl++
			} else {
				nr++
			}
		}
		if nl <= s.bestSize() || nr <= s.bestSize() {
			stats.SubgraphsPruned++
			continue
		}

		sub, toReduced := reduced.Induced(kept)
		stats.SumSubDensity += sub.Density()
		stats.DensitySamples++
		stats.SumSubVertices += int64(sub.NumVertices())

		var scores []int // nil: the max-degree rule
		if !s.opt.SkipCoreOpts {
			// Degeneracy prune: a biclique of balanced size best+1 forces
			// δ(H) ≥ best+1.
			c := decomp.Cores(sub)
			if c.Degeneracy() <= s.bestSize() {
				stats.SubgraphsPruned++
				continue
			}
			scores = c.Core
		}

		// Map sub ids to original ids and locate the centre.
		bigraph.ComposeMap(toReduced, newToOld)
		centerOrig := newToOld[v]
		center := -1
		for j, ov := range toReduced {
			if ov == centerOrig {
				center = j
				break
			}
		}

		// Local greedy heuristic (Algorithm 6 lines 11–13).
		if bc := heur.Greedy(sub, scores, s.opt.Seeds); bc.Size() > 0 {
			s.improve(remap(bc, toReduced))
			if bc.Size() > s.heurLocal {
				s.heurLocal = bc.Size()
			}
		}

		produced++
		emit(centred{sub: sub, toOrig: toReduced, center: center})
	}
	return produced
}
