// Package decomp implements the graph decompositions the paper builds on:
// classic core decomposition (degeneracy) via Batagelj–Zaversnik bucket
// peeling, the paper's novel bicore decomposition (Definitions 3–4,
// Algorithm 7) based on two-hop neighbourhoods, and the three total search
// orders compared in the evaluation (degree, degeneracy, bidegeneracy).
package decomp

import (
	"math/bits"
	"slices"

	"repro/internal/bigraph"
)

// CoreResult carries the output of a core decomposition.
type CoreResult struct {
	Core  []int // core number per unified vertex id
	Order []int // peeling order (degeneracy order)
	// Pos[v] is the index of v in Order.
	Pos []int
}

// Degeneracy returns δ(G), the maximum core number.
func (c *CoreResult) Degeneracy() int {
	d := 0
	for _, k := range c.Core {
		if k > d {
			d = k
		}
	}
	return d
}

// Cores performs a core decomposition of g with the O(n+m) bucket peeling
// algorithm of Batagelj and Zaversnik. The returned Order is a degeneracy
// order: each vertex has the minimum degree in the subgraph induced by it
// and its successors.
func Cores(g *bigraph.Graph) *CoreResult {
	n := g.NumVertices()
	deg := make([]int, n)
	md := 0
	for v := 0; v < n; v++ {
		deg[v] = g.Deg(v)
		if deg[v] > md {
			md = deg[v]
		}
	}
	// bin[d] = start index in vert of vertices with current degree d.
	bin := make([]int, md+2)
	for v := 0; v < n; v++ {
		bin[deg[v]+1]++
	}
	for d := 1; d < len(bin); d++ {
		bin[d] += bin[d-1]
	}
	pos := make([]int, n)
	vert := make([]int, n)
	fill := make([]int, md+1)
	copy(fill, bin[:md+1])
	for v := 0; v < n; v++ {
		pos[v] = fill[deg[v]]
		vert[pos[v]] = v
		fill[deg[v]]++
	}
	core := make([]int, n)
	for i := 0; i < n; i++ {
		v := vert[i]
		core[v] = deg[v]
		for _, wn := range g.Neighbors(v) {
			w := int(wn)
			if deg[w] > deg[v] {
				// Move w one bucket down: swap it with the first vertex of
				// its current bucket, then shrink the bucket.
				dw := deg[w]
				pw := pos[w]
				ps := bin[dw]
				s := vert[ps]
				if w != s {
					vert[pw], vert[ps] = s, w
					pos[w], pos[s] = ps, pw
				}
				bin[dw]++
				deg[w]--
			}
		}
	}
	orderPos := make([]int, n)
	for i, v := range vert {
		orderPos[v] = i
	}
	return &CoreResult{Core: core, Order: vert, Pos: orderPos}
}

// KCoreMask returns a boolean mask (indexed by unified id) of the vertices
// belonging to the k-core of g. The mask is freshly allocated; the
// peeling state comes from the package workspace pool.
func KCoreMask(g *bigraph.Graph, k int) []bool {
	return KCoreMaskInto(g, k, nil)
}

// KCoreMaskInto is KCoreMask writing the result into dst, which is grown
// as needed and returned (pass nil to allocate). Callers that peel the
// same graph repeatedly — the sparse verification step runs one peel per
// surviving subgraph — reuse one mask buffer across calls.
func KCoreMaskInto(g *bigraph.Graph, k int, dst []bool) []bool {
	n := g.NumVertices()
	if cap(dst) < n {
		dst = make([]bool, n)
	}
	mask := dst[:n]
	clear(mask)
	ws := getWS()
	defer putWS(ws)
	for _, v := range ws.kcore(g, k) {
		mask[v] = true
	}
	return mask
}

// KCoreList returns the vertices of g's k-core in ascending id order,
// freshly allocated: the keep list of the induced k-core, without a mask
// or any other table as long as the graph.
func KCoreList(g *bigraph.Graph, k int) []int {
	ws := getWS()
	defer putWS(ws)
	core := ws.kcore(g, k)
	out := make([]int, len(core))
	for i, v := range core {
		out[i] = int(v)
	}
	return out
}

// kcore peels g to its k-core and returns the survivors in ascending id
// order, in ws.cand. Only the candidates — vertices of degree ≥ k, the
// only ones that can survive — get peeling state, so after one scan of
// the degrees the cost follows them, not n:
//   - a core vertex has k core neighbours, all on the other side, so if
//     either side has fewer than k candidates (or, during the peel,
//     fewer than k live ones) the core is empty;
//   - a candidate's starting count is its number of candidate
//     neighbours, read from whichever side has fewer vertices plus list
//     entries: counted over the candidates' own lists, or taken as the
//     plain degree less one per edge from a non-candidate (the plain
//     peel's first wave, which reads no list when every vertex is a
//     candidate);
//   - one bit per vertex marks the live candidates (n/8 bytes, small
//     enough to stay in cache), and a candidate dies exactly once, when
//     its count first drops below k.
func (ws *workspace) kcore(g *bigraph.Graph, k int) []int32 {
	n, nl := g.NumVertices(), g.NL()
	k = max(k, 0)
	if cap(ws.cdeg) < n {
		ws.cdeg = make([]int32, n)
	}
	// cdeg holds a candidate's live count; entries at other vertices are
	// scratch and never read.
	cdeg, k32 := ws.cdeg[:n], int32(k)
	live := &ws.live
	live.Reshape(n)
	cand := ws.cand[:0]
	candSum := 0 // the candidates' degree sum
	for v := 0; v < n; v++ {
		if d := g.Deg(v); d >= k {
			cand = append(cand, int32(v))
			live.Add(v)
			cdeg[v] = int32(d)
			candSum += d
		}
	}
	ws.cand = cand
	var count [2]int // live candidates per side
	count[0], _ = slices.BinarySearch(cand, int32(nl))
	count[1] = len(cand) - count[0]
	if count[0] < k || count[1] < k {
		return cand[:0]
	}
	if len(cand)+candSum <= n-len(cand)+2*g.NumEdges()-candSum {
		for _, v := range cand {
			d := int32(0)
			for _, w := range g.Neighbors(int(v)) {
				if live.Contains(int(w)) {
					d++
				}
			}
			cdeg[v] = d
		}
	} else {
		for wi, word := range live.Words() {
			for zero := ^word; zero != 0; zero &= zero - 1 {
				u := wi*64 + bits.TrailingZeros64(zero)
				if u >= n {
					break
				}
				for _, w := range g.Neighbors(u) {
					cdeg[w]--
				}
			}
		}
	}
	side := func(v int32) int {
		if int(v) < nl {
			return 0
		}
		return 1
	}
	dead := ws.dead[:0]
	for _, v := range cand {
		if cdeg[v] < k32 {
			dead = append(dead, v)
			live.Remove(int(v))
			count[side(v)]--
		}
	}
	for len(dead) > 0 && count[0] >= k && count[1] >= k {
		v := dead[len(dead)-1]
		dead = dead[:len(dead)-1]
		for _, w := range g.Neighbors(int(v)) {
			if !live.Contains(int(w)) {
				continue
			}
			if cdeg[w]--; cdeg[w] < k32 {
				live.Remove(int(w))
				dead = append(dead, w)
				count[side(w)]--
			}
		}
	}
	ws.dead = dead[:0]
	if count[0] < k || count[1] < k {
		return cand[:0]
	}
	out := cand[:0]
	for _, v := range cand {
		if live.Contains(int(v)) {
			out = append(out, v)
		}
	}
	return out
}

// KCoreMaskWithin peels the subgraph of g induced by start down to its
// k-core, returning the surviving mask. start is not modified.
func KCoreMaskWithin(g *bigraph.Graph, start []bool, k int) []bool {
	ws := getWS()
	defer putWS(ws)
	n := g.NumVertices()
	alive := make([]bool, n)
	deg := grownInts(ws.deg, n)
	queue := ws.queue[:0]
	defer func() { ws.deg, ws.queue = deg, queue[:0] }()
	for v := 0; v < n; v++ {
		if !start[v] {
			continue
		}
		alive[v] = true
		deg[v] = g.DegWithin(v, start)
	}
	// deg is stale where start is false, but those vertices are dead and
	// never read.
	for v := 0; v < n; v++ {
		if alive[v] && deg[v] < k {
			alive[v] = false
			queue = append(queue, v)
		}
	}
	for len(queue) > 0 {
		v := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for _, wn := range g.Neighbors(v) {
			w := int(wn)
			if !alive[w] {
				continue
			}
			deg[w]--
			if deg[w] < k {
				alive[w] = false
				queue = append(queue, w)
			}
		}
	}
	return alive
}
