package heur_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/bigraph"
	"repro/internal/decomp"
	"repro/internal/heur"
	"repro/internal/workload"
)

// refGreedy and its ref* helpers are the straightforward seeded greedy
// that heur.Greedy must reproduce witness for witness: a full sort of
// every vertex by score, a fresh map per two-hop set, swap-then-sort
// removal, and an expansion for every seed of positive degree. They are
// the test oracle only.
func refGreedy(g *bigraph.Graph, score []int, seeds int) bigraph.Biclique {
	n := g.NumVertices()
	if n == 0 || g.NumEdges() == 0 {
		return bigraph.Biclique{}
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool {
		if score[order[i]] != score[order[j]] {
			return score[order[i]] > score[order[j]]
		}
		return order[i] < order[j]
	})
	if seeds < 1 {
		seeds = 1
	}
	if seeds > n {
		seeds = n
	}
	var best bigraph.Biclique
	for _, u := range order[:seeds] {
		if g.Deg(u) == 0 {
			continue
		}
		bc := refExpand(g, u, score)
		if bc.Size() > best.Size() {
			best = bc
		}
	}
	return best
}

// refExpand grows a balanced biclique around seed u by alternating sides.
func refExpand(g *bigraph.Graph, u int, score []int) bigraph.Biclique {
	// Orient so the seed is on the "A" side; flip back at the end.
	flip := !g.IsLeft(u)

	A := []int{u}
	var B []int
	// CB: candidates adjacent to all of A; CA: candidates adjacent to all
	// of B (restricted to the 2-hop neighbourhood of u for locality).
	CB := refToInts(g.Neighbors(u))
	CA := refTwoHopSameSide(g, u)

	for {
		if len(A) <= len(B) {
			if len(CA) == 0 {
				break
			}
			v := refPickBest(CA, score)
			A = append(A, v)
			CA = refRemoveOne(CA, v)
			CB = refIntersectAdj(g, CB, v)
		} else {
			if len(CB) == 0 {
				break
			}
			v := refPickBest(CB, score)
			B = append(B, v)
			CB = refRemoveOne(CB, v)
			CA = refIntersectAdj(g, CA, v)
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

// refTwoHopSameSide returns the vertices at distance exactly two from u.
func refTwoHopSameSide(g *bigraph.Graph, u int) []int {
	seen := map[int]bool{u: true}
	var out []int
	for _, w := range g.Neighbors(u) {
		for _, x := range g.Neighbors(int(w)) {
			if !seen[int(x)] {
				seen[int(x)] = true
				out = append(out, int(x))
			}
		}
	}
	sort.Ints(out)
	return out
}

func refToInts(a []int32) []int {
	out := make([]int, len(a))
	for i, v := range a {
		out[i] = int(v)
	}
	return out
}

// refPickBest returns the element of cand with the highest score.
func refPickBest(cand []int, score []int) int {
	best := cand[0]
	for _, v := range cand[1:] {
		if score[v] > score[best] {
			best = v
		}
	}
	return best
}

func refRemoveOne(a []int, v int) []int {
	for i, x := range a {
		if x == v {
			a[i] = a[len(a)-1]
			a = a[:len(a)-1]
			sort.Ints(a)
			return a
		}
	}
	return a
}

// refIntersectAdj returns cand ∩ N(v), keeping cand sorted.
func refIntersectAdj(g *bigraph.Graph, cand []int, v int) []int {
	ns := g.Neighbors(v)
	out := cand[:0]
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

// sameAsReference fails t unless heur.Greedy and refGreedy return
// identical witnesses on (g, score, seeds). A nil score is Greedy's
// max-degree rule, which reads the degrees from g; the reference gets
// them as a table.
func sameAsReference(t *testing.T, name string, g *bigraph.Graph, score []int, seeds int) {
	t.Helper()
	refScore := score
	if score == nil {
		refScore = heur.DegreeScores(g)
	}
	got, want := heur.Greedy(g, score, seeds), refGreedy(g, refScore, seeds)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s (seeds %d): Greedy = %v, reference = %v", name, seeds, got, want)
	}
}

// scoreVectors returns the score vectors the pipelines pass: degrees
// (the max-degree rule, as a table and as nil) and core numbers (the
// max-core rule). All have many ties.
func scoreVectors(g *bigraph.Graph) map[string][]int {
	return map[string][]int{"degree": heur.DegreeScores(g), "degree-nil": nil, "core": decomp.Cores(g).Core}
}

func TestGreedyMatchesReference(t *testing.T) {
	t.Run("random", func(t *testing.T) {
		rng := rand.New(rand.NewSource(16))
		trials := 1000
		if testing.Short() {
			trials = 200
		}
		for i := 0; i < trials; i++ {
			g := randomBigraph(rng, 40, rng.Float64())
			n := g.NumVertices()
			for mode, score := range scoreVectors(g) {
				for _, seeds := range []int{0, 1, 3, 8, n + 5} {
					sameAsReference(t, fmt.Sprintf("graph %d %dx%d m=%d, %s", i, g.NL(), g.NR(), g.NumEdges(), mode), g, score, seeds)
				}
			}
		}
	})

	// Every Table 5 stand-in, plus the (τ+1)-core the planner's second
	// greedy pass runs on.
	for _, maxVerts := range []int{2000, 20000} {
		if maxVerts > 2000 && testing.Short() {
			continue
		}
		t.Run(fmt.Sprintf("standins-%d", maxVerts), func(t *testing.T) {
			for _, d := range workload.Registry {
				g := d.Generate(maxVerts, 1)
				for mode, score := range scoreVectors(g) {
					for _, seeds := range []int{1, 8} {
						sameAsReference(t, d.Name+" "+mode, g, score, seeds)
					}
				}
				tau := heur.Greedy(g, nil, 8).Size()
				red, _ := g.InducedByMask(decomp.KCoreMask(g, tau+1))
				sameAsReference(t, d.Name+" core-reduced", red, decomp.Cores(red).Core, 8)
			}
		})
	}

	// One graph per skip rule in heur.Greedy. Each check confirms that
	// the rule's precondition holds on the graph, so the rule runs there.
	t.Run("stop-at-min-side", func(t *testing.T) {
		// K5,5 plus four isolated right vertices: the first seed reaches
		// min(NL, NR) = 5, so no later seed is tried.
		var edges [][2]int
		for l := 0; l < 5; l++ {
			for r := 0; r < 5; r++ {
				edges = append(edges, [2]int{l, r})
			}
		}
		g := bigraph.FromEdges(5, 9, edges)
		deg := heur.DegreeScores(g)
		if got := refGreedy(g, deg, 1).Size(); got != min(g.NL(), g.NR()) {
			t.Fatalf("first seed reaches %d, want min side %d", got, min(g.NL(), g.NR()))
		}
		for _, seeds := range []int{1, 3, 8, g.NumVertices() + 5} {
			sameAsReference(t, "K5,5 + isolated", g, deg, seeds)
		}
	})
	t.Run("two-hop-bound", func(t *testing.T) {
		// A jester-like shape: four right vertices against many left ones.
		// r0..r2 share 15 left neighbours (a K15,3) and r3 owns 10 private
		// left neighbours. The first seed r0 finds size 3; r1 and r2 have
		// two-hop sets {r0, r2} and {r0, r1}, r3 an empty one, so each
		// expansion ends at 1 + |two-hop| ≤ 3 although its degree is larger.
		var edges [][2]int
		for l := 0; l < 15; l++ {
			for r := 0; r < 3; r++ {
				edges = append(edges, [2]int{l, r})
			}
		}
		for l := 15; l < 25; l++ {
			edges = append(edges, [2]int{l, 3})
		}
		g := bigraph.FromEdges(25, 4, edges)
		deg := heur.DegreeScores(g)
		best := refGreedy(g, deg, 1).Size()
		if r3 := g.Right(3); best != 3 || best >= min(g.NL(), g.NR()) || g.Deg(r3) <= best {
			t.Fatalf("first seed finds %d, deg(r3) = %d: the two-hop bound would not be reached", best, g.Deg(r3))
		}
		for _, seeds := range []int{3, 4, 8, g.NumVertices() + 5} {
			sameAsReference(t, "jester-like", g, deg, seeds)
		}
	})
	t.Run("degree-bound", func(t *testing.T) {
		// K4,4 on L0..L3 × R0..R3 plus a sparse fringe of degree ≤ 2 on
		// both sides: after the first seed every later seed has degree at
		// most 4, the best size, while min(NL, NR) = 8 never stops the scan.
		var edges [][2]int
		for l := 0; l < 4; l++ {
			for r := 0; r < 4; r++ {
				edges = append(edges, [2]int{l, r})
			}
		}
		for i := 4; i < 8; i++ {
			edges = append(edges, [2]int{i, i}, [2]int{i, (i+1)%4 + 4})
		}
		g := bigraph.FromEdges(8, 8, edges)
		deg := heur.DegreeScores(g)
		if best := refGreedy(g, deg, 1).Size(); best != 4 || g.MaxDegree() > best || best >= min(g.NL(), g.NR()) {
			t.Fatalf("first seed finds %d with max degree %d: the degree bound would not be reached", best, g.MaxDegree())
		}
		for _, seeds := range []int{2, 8, g.NumVertices() + 5} {
			sameAsReference(t, "K4,4 + fringe", g, deg, seeds)
		}
	})
}

// TestGreedyHubIntersections runs the expansions where a candidate list
// is intersected with a hub's much longer adjacency list, the case
// intersectAdj answers by binary search: three left hubs adjacent to
// every right vertex beside ordinary left vertices of degree 3–12. With
// low degrees scoring high, the ordinary vertices shrink the right
// candidates first and the hubs join later, against a short list.
func TestGreedyHubIntersections(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for trial := 0; trial < 20; trial++ {
		nl, nr := 3+30+rng.Intn(40), 300+rng.Intn(700)
		b := bigraph.NewBuilder(nl, nr)
		for l := 0; l < 3; l++ {
			for r := 0; r < nr; r++ {
				b.AddEdge(l, r)
			}
		}
		for l := 3; l < nl; l++ {
			for i := 3 + rng.Intn(10); i > 0; i-- {
				b.AddEdge(l, rng.Intn(nr))
			}
		}
		g := b.Build()
		low := make([]int, g.NumVertices())
		for v := range low {
			low[v] = -g.Deg(v)
		}
		name := fmt.Sprintf("hubs %d %dx%d", trial, nl, nr)
		for _, seeds := range []int{1, 8, 64} {
			sameAsReference(t, name+" low-degree-first", g, low, seeds)
			sameAsReference(t, name+" degree-nil", g, nil, seeds)
		}
	}
}

// FuzzGreedyMatchesReference: the first two bytes give the side sizes,
// the third a score mode (degrees, core numbers, all equal, the input
// bytes themselves, or nil for degrees read from the graph), the fourth
// the seed count (0 up to n+5), and every further byte pair an edge.
func FuzzGreedyMatchesReference(f *testing.F) {
	f.Add([]byte{4, 4, 0, 2, 0, 0, 0, 1, 1, 0, 1, 1, 2, 2, 3, 3})
	f.Add([]byte{9, 2, 1, 8, 0, 0, 1, 0, 2, 0, 3, 1, 4, 1, 5, 0, 5, 1})
	f.Add([]byte{5, 5, 2, 30, 0, 0, 0, 1, 1, 0, 1, 1, 4, 4})
	f.Add([]byte{12, 7, 3, 5, 9, 3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9})
	f.Add([]byte{20, 3, 4, 8, 0, 0, 0, 1, 0, 2, 1, 0, 1, 1, 2, 2, 3, 0, 4, 1, 5, 2, 6, 0, 7, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		nl, nr := 1+int(data[0])%24, 1+int(data[1])%24
		n := nl + nr
		b := bigraph.NewBuilder(nl, nr)
		edges := data[4:]
		for i := 0; i+1 < len(edges); i += 2 {
			b.AddEdge(int(edges[i])%nl, int(edges[i+1])%nr)
		}
		g := b.Build()
		var score []int
		switch data[2] % 5 {
		case 0:
			score = heur.DegreeScores(g)
		case 1:
			score = decomp.Cores(g).Core
		case 2:
			score = make([]int, n)
		case 3:
			score = make([]int, n)
			for v := range score {
				score[v] = int(data[v%len(data)]) % 7
			}
		}
		sameAsReference(t, "fuzz", g, score, int(data[3])%(n+6))
	})
}
