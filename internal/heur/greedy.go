// Package heur implements the heuristic balanced-biclique finders used by
// the paper: the max-degree and max-core greedy rules of hMBB (Algorithm
// 5), the local core-based greedy of bridgeMBB (Algorithm 6), and
// simplified reimplementations of the POLS [26] and SBMNAS [16] local
// search heuristics used to assemble the adp1..adp4 baselines.
package heur

import (
	"math/bits"
	"slices"
	"sort"

	"repro/internal/bigraph"
)

// Greedy finds a balanced biclique by seeded alternating expansion: it
// anchors at each of the `seeds` highest-scoring vertices in turn (score
// descending, ties broken by ascending id), then repeatedly extends the
// smaller side with the highest-scoring compatible candidate. score is
// indexed by unified vertex id — pass core numbers for the max-core rule,
// or nil for the max-degree rule, which reads the degrees from g itself.
// The first largest biclique over all seeds is returned.
//
// The seeds are selected in one pass over the vertices with a sorted
// buffer of `seeds` entries: O(n) time for the small seed counts callers
// use (O(n·seeds) at worst), plus the expansions. Because only a strictly
// larger biclique replaces the best one, three skips leave the result
// unchanged:
//   - once the best size reaches min(NL, NR) no balanced biclique can be
//     larger, so the remaining seeds are not tried;
//   - a seed u with deg(u) ≤ best is skipped, because the side opposite
//     u is drawn from N(u);
//   - an expansion stops before growing when 1 + |two-hop(u)| ≤ best,
//     because u's own side is drawn from u and its two-hop set.
func Greedy(g *bigraph.Graph, score []int, seeds int) bigraph.Biclique {
	n := g.NumVertices()
	if n == 0 || g.NumEdges() == 0 {
		return bigraph.Biclique{}
	}
	limit := min(g.NL(), g.NR())
	mark := make([]bool, n)
	sc := scores{g: g, s: score}
	var best bigraph.Biclique
	for _, u := range topScores(sc, n, min(max(seeds, 1), n)) {
		if best.Size() == limit {
			break
		}
		if g.Deg(u) <= best.Size() {
			continue
		}
		bc := expand(g, u, sc, mark, best.Size())
		if bc.Size() > best.Size() {
			best = bc
		}
	}
	return best
}

// scores is a greedy score vector: s[v], or g's degree of v when s is
// nil, so the max-degree rule needs no table of its own.
type scores struct {
	g *bigraph.Graph
	s []int
}

func (sc scores) of(v int) int {
	if sc.s == nil {
		return sc.g.Deg(v)
	}
	return sc.s[v]
}

// topScores returns the k vertices among 0..n−1 that come first in
// (score descending, id ascending) order, in that order. Vertices are
// scanned by ascending id, so a newcomer ties after every buffered vertex
// of equal score and enters the full buffer only with a strictly higher
// score than its last entry.
func topScores(sc scores, n, k int) []int {
	top := make([]int, 0, k)
	last := 0 // the score of top[k-1] once the buffer is full
	for v := 0; v < n; v++ {
		s := sc.of(v)
		if len(top) == k && s <= last {
			continue
		}
		i := sort.Search(len(top), func(i int) bool { return sc.of(top[i]) < s })
		if len(top) == k {
			top = top[:k-1]
		}
		top = slices.Insert(top, i, v)
		if len(top) == k {
			last = sc.of(top[k-1])
		}
	}
	return top
}

// expand grows a balanced biclique around seed u by alternating sides. It
// returns the empty biclique as soon as the result provably cannot exceed
// best. mark must be all false; it is restored before expand returns.
func expand(g *bigraph.Graph, u int, sc scores, mark []bool, best int) bigraph.Biclique {
	// Orient so the seed is on the "A" side; flip back at the end.
	flip := !g.IsLeft(u)

	A := []int{u}
	var B []int
	// CB: candidates adjacent to all of A; CA: candidates adjacent to all
	// of B (restricted to the 2-hop neighbourhood of u for locality).
	CA := twoHopSameSide(g, u, mark)
	if 1+len(CA) <= best {
		return bigraph.Biclique{}
	}
	CB := toInts(g.Neighbors(u))

	for {
		if len(A) <= len(B) {
			if len(CA) == 0 {
				break
			}
			v := pickBest(CA, sc)
			A = append(A, v)
			CA = removeOne(CA, v)
			CB = intersectAdj(g, CB, v)
		} else {
			if len(CB) == 0 {
				break
			}
			v := pickBest(CB, sc)
			B = append(B, v)
			CB = removeOne(CB, v)
			CA = intersectAdj(g, CA, v)
		}
	}
	// Final balancing: every remaining CB vertex is adjacent to all of A
	// (and CA to all of B), so either side can be topped up freely.
	for len(B) < len(A) && len(CB) > 0 {
		B = append(B, CB[len(CB)-1])
		CB = CB[:len(CB)-1]
	}
	for len(A) < len(B) && len(CA) > 0 {
		A = append(A, CA[len(CA)-1])
		CA = CA[:len(CA)-1]
	}
	s := len(A)
	if len(B) < s {
		s = len(B)
	}
	bc := bigraph.Biclique{A: A[:s:s], B: B[:s:s]}
	if flip {
		bc.A, bc.B = bc.B, bc.A
	}
	return bc
}

// twoHopSameSide returns the vertices at distance exactly two from u in
// ascending order. mark must be all false; it is restored on return.
func twoHopSameSide(g *bigraph.Graph, u int, mark []bool) []int {
	mark[u] = true
	var out []int
	for _, w := range g.Neighbors(u) {
		for _, x := range g.Neighbors(int(w)) {
			if !mark[x] {
				mark[x] = true
				out = append(out, int(x))
			}
		}
	}
	mark[u] = false
	for _, x := range out {
		mark[x] = false
	}
	sort.Ints(out)
	return out
}

func toInts(a []int32) []int {
	out := make([]int, len(a))
	for i, v := range a {
		out[i] = int(v)
	}
	return out
}

// pickBest returns the first element of cand with the highest score.
func pickBest(cand []int, sc scores) int {
	best, bs := cand[0], sc.of(cand[0])
	for _, v := range cand[1:] {
		if s := sc.of(v); s > bs {
			best, bs = v, s
		}
	}
	return best
}

// removeOne deletes v from the sorted slice a, keeping it sorted.
func removeOne(a []int, v int) []int {
	if i, ok := slices.BinarySearch(a, v); ok {
		return slices.Delete(a, i, i+1)
	}
	return a
}

// intersectAdj returns cand ∩ N(v), keeping cand sorted. It merges the
// two sorted lists, unless N(v) is so much longer — a hub's list against
// a few candidates — that binary-searching each candidate in the rest of
// N(v) reads less of it.
func intersectAdj(g *bigraph.Graph, cand []int, v int) []int {
	ns := g.Neighbors(v)
	out := cand[:0]
	if len(cand)*bits.Len(uint(len(ns))) < len(ns) {
		for _, c := range cand {
			i, found := slices.BinarySearch(ns, int32(c))
			if found {
				out = append(out, c)
				i++
			}
			ns = ns[i:]
		}
		return out
	}
	i, j := 0, 0
	for i < len(cand) && j < len(ns) {
		switch {
		case cand[i] < int(ns[j]):
			i++
		case cand[i] > int(ns[j]):
			j++
		default:
			out = append(out, cand[i])
			i++
			j++
		}
	}
	return out
}

// DegreeScores returns the degree of every vertex as a table, for the
// heuristics that index degrees many times (Greedy reads them from the
// graph when given a nil score).
func DegreeScores(g *bigraph.Graph) []int {
	s := make([]int, g.NumVertices())
	for v := range s {
		s[v] = g.Deg(v)
	}
	return s
}
