// Package bigraph implements the bipartite graph substrate: an immutable
// CSR-style adjacency representation over a unified vertex-id space,
// builders, induced subgraphs, and text IO.
//
// Vertex ids are unified: left vertices occupy [0, NL) and right vertices
// occupy [NL, NL+NR). All adjacency lists are sorted, which makes edge
// queries O(log d) and neighbourhood merges linear.
package bigraph

import (
	"fmt"
	"math"
	"slices"
	"sort"
)

// Graph is an immutable bipartite graph.
type Graph struct {
	nl, nr int
	// CSR layout: neighbours of v are adj[off[v]:off[v+1]], sorted ascending.
	off []int32
	adj []int32
	m   int
}

// NL returns the number of left-side vertices.
func (g *Graph) NL() int { return g.nl }

// NR returns the number of right-side vertices.
func (g *Graph) NR() int { return g.nr }

// NumVertices returns |L| + |R|.
func (g *Graph) NumVertices() int { return g.nl + g.nr }

// NumEdges returns the number of edges.
func (g *Graph) NumEdges() int { return g.m }

// IsLeft reports whether unified vertex id v lies on the left side.
func (g *Graph) IsLeft(v int) bool { return v < g.nl }

// Left returns the unified id of the i-th left vertex.
func (g *Graph) Left(i int) int { return i }

// Right returns the unified id of the j-th right vertex.
func (g *Graph) Right(j int) int { return g.nl + j }

// LocalIndex maps a unified id to its side-local index.
func (g *Graph) LocalIndex(v int) int {
	if v < g.nl {
		return v
	}
	return v - g.nl
}

// Deg returns the degree of unified vertex v.
func (g *Graph) Deg(v int) int { return int(g.off[v+1] - g.off[v]) }

// Neighbors returns the sorted neighbour list of v. The returned slice
// aliases the graph's storage and must not be modified.
func (g *Graph) Neighbors(v int) []int32 { return g.adj[g.off[v]:g.off[v+1]] }

// HasEdge reports whether the edge (u, v) exists. u and v are unified ids;
// the lookup is a binary search in the shorter adjacency list.
func (g *Graph) HasEdge(u, v int) bool {
	if g.Deg(u) > g.Deg(v) {
		u, v = v, u
	}
	ns := g.Neighbors(u)
	i := sort.Search(len(ns), func(i int) bool { return ns[i] >= int32(v) })
	return i < len(ns) && ns[i] == int32(v)
}

// Density returns |E| / (|L|·|R|), the edge density used throughout the
// paper's evaluation. It is 0 for degenerate shapes.
func (g *Graph) Density() float64 {
	if g.nl == 0 || g.nr == 0 {
		return 0
	}
	return float64(g.m) / (float64(g.nl) * float64(g.nr))
}

// MaxDegree returns the maximum degree over all vertices.
func (g *Graph) MaxDegree() int {
	d := 0
	for v := 0; v < g.NumVertices(); v++ {
		if dv := g.Deg(v); dv > d {
			d = dv
		}
	}
	return d
}

// Builder accumulates edges for a bipartite graph with fixed side sizes.
// Duplicate edges are tolerated and removed at Build time.
type Builder struct {
	nl, nr int
	keys   []uint64 // one packed edgeKey per AddEdge
}

// edgeKey packs side-local indices (l, r) into one sort key: keys order
// by l, then r, which is the CSR order of the left adjacency lists.
func edgeKey(l, r int) uint64 { return uint64(l)<<32 | uint64(r) }

// NewBuilder returns a builder for a graph with nl left and nr right
// vertices.
func NewBuilder(nl, nr int) *Builder {
	if nl < 0 || nr < 0 {
		panic("bigraph: negative side size")
	}
	if nl > math.MaxInt32-nr {
		panic(fmt.Sprintf("bigraph: %dx%d vertices overflow int32 ids", nl, nr))
	}
	return &Builder{nl: nl, nr: nr}
}

// AddEdge records an edge between side-local left index l and side-local
// right index r. It panics on out-of-range indices (programmer error).
func (b *Builder) AddEdge(l, r int) {
	if l < 0 || l >= b.nl || r < 0 || r >= b.nr {
		panic(fmt.Sprintf("bigraph: edge (%d,%d) out of range %dx%d", l, r, b.nl, b.nr))
	}
	b.keys = append(b.keys, edgeKey(l, r))
}

// NumEdgesAdded reports how many edges (including duplicates) were added.
func (b *Builder) NumEdgesAdded() int { return len(b.keys) }

// Build finalises the graph: edges are deduplicated and adjacency lists
// sorted. The builder can be reused afterwards only by adding more edges.
func (b *Builder) Build() *Graph {
	b.keys = sortedKeys(b.keys)
	return buildCSR(b.nl, b.nr, b.keys)
}

// sortedKeys sorts and deduplicates keys in place. The sort is linear on
// input that is already sorted, such as the bodies Write produces.
func sortedKeys(keys []uint64) []uint64 {
	slices.Sort(keys)
	return slices.Compact(keys)
}

// buildCSR lays out the graph of the sorted, duplicate-free edge keys,
// whose indices lie inside nl x nr.
func buildCSR(nl, nr int, keys []uint64) *Graph {
	n, m := nl+nr, len(keys)
	off := make([]int32, n+1)
	for _, k := range keys {
		off[k>>32+1]++
		off[nl+int(uint32(k))+1]++
	}
	var sum int32
	for v, d := range off {
		sum += d
		off[v] = sum
	}
	adj := make([]int32, 2*m)
	// The keys are in left-list order, so the left lists are their right
	// halves in sequence. Each right list fills in ascending left order,
	// using off[v] as v's cursor; afterwards off[v] holds v's end, which
	// is off[v+1]'s value, so one shift restores the right offsets.
	for i, k := range keys {
		l, r := int32(k>>32), nl+int(uint32(k))
		adj[i] = int32(r)
		adj[off[r]] = l
		off[r]++
	}
	copy(off[nl+1:], off[nl:n])
	off[nl] = int32(m)
	return &Graph{nl: nl, nr: nr, off: off, adj: adj, m: m}
}

// FromEdges builds a graph from side-local (l, r) pairs.
func FromEdges(nl, nr int, edges [][2]int) *Graph {
	b := NewBuilder(nl, nr)
	for _, e := range edges {
		b.AddEdge(e[0], e[1])
	}
	return b.Build()
}

// Edges returns all edges as side-local (l, r) pairs in deterministic
// order. Intended for tests and IO, not hot paths.
func (g *Graph) Edges() [][2]int {
	out := make([][2]int, 0, g.m)
	for l := 0; l < g.nl; l++ {
		for _, r := range g.Neighbors(l) {
			out = append(out, [2]int{l, int(r) - g.nl})
		}
	}
	return out
}
