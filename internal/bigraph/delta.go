package bigraph

import (
	"fmt"
	"slices"
)

// Delta is a batch of edge mutations in side-local (left, right) index
// pairs — the unit of change for mutable served graphs. Deletions apply
// before additions, so an edge named in both lists ends up present.
//
// Side sizes are fixed: a delta may not grow |L| or |R|. Growing the left
// side would renumber every right vertex's unified id (right ids are
// NL+j), silently invalidating any artifact pinned to an earlier
// snapshot — callers that need a different shape upload a new graph.
type Delta struct {
	Add [][2]int `json:"add,omitempty"`
	Del [][2]int `json:"del,omitempty"`
}

// Empty reports whether the delta names no edges at all.
func (d Delta) Empty() bool { return len(d.Add) == 0 && len(d.Del) == 0 }

// Apply returns a new immutable graph with d applied to g, leaving g
// untouched (copy-on-write), plus the effective delta: the additions that
// were not already present and the deletions that actually removed an
// edge, each deduplicated. An edge named in both lists is a net no-op and
// appears in neither. When nothing effectively changes, g itself is
// returned.
//
// The rebuild bypasses the Builder's global edge sort: each run of
// untouched vertices is copied wholesale and only the touched vertices
// merge their overlay, so a batch of b edges costs O(n + m + b log b)
// flat-copy work instead of the builder's O((m+b) log(m+b)).
func (g *Graph) Apply(d Delta) (*Graph, Delta, error) {
	check := func(kind string, e [2]int) error {
		if e[0] < 0 || e[0] >= g.nl || e[1] < 0 || e[1] >= g.nr {
			return fmt.Errorf("bigraph: %s edge (%d,%d) out of range %dx%d", kind, e[0], e[1], g.nl, g.nr)
		}
		return nil
	}
	inAdd := make(map[[2]int]bool, len(d.Add))
	for _, e := range d.Add {
		if err := check("add", e); err != nil {
			return nil, Delta{}, err
		}
		inAdd[e] = true
	}
	var eff Delta
	seenDel := make(map[[2]int]bool, len(d.Del))
	for _, e := range d.Del {
		if err := check("del", e); err != nil {
			return nil, Delta{}, err
		}
		if seenDel[e] || inAdd[e] || !g.HasEdge(e[0], g.nl+e[1]) {
			continue
		}
		seenDel[e] = true
		eff.Del = append(eff.Del, e)
	}
	seenAdd := make(map[[2]int]bool, len(d.Add))
	for _, e := range d.Add {
		if seenAdd[e] || g.HasEdge(e[0], g.nl+e[1]) {
			continue
		}
		seenAdd[e] = true
		eff.Add = append(eff.Add, e)
	}
	if eff.Empty() {
		return g, eff, nil
	}

	return g.patched(eff), eff, nil
}

// patched lays out g with the effective delta eff applied. Each edge of
// eff patches both of its ends; the patches are sorted once by vertex,
// then neighbour. Every run of untouched vertices between two patched
// ones is one copy of its adjacency span, its offsets shifted by the
// edge-count change so far, and only a patched vertex merges its old list
// with its additions and deletions.
func (g *Graph) patched(eff Delta) *Graph {
	ends := func(edges [][2]int) []uint64 {
		keys := make([]uint64, 0, 2*len(edges))
		for _, e := range edges {
			u, v := uint64(e[0]), uint64(g.nl+e[1])
			keys = append(keys, u<<32|v, v<<32|u)
		}
		slices.Sort(keys)
		return keys
	}
	add, del := ends(eff.Add), ends(eff.Del)

	n := g.nl + g.nr
	m2 := g.m + len(eff.Add) - len(eff.Del)
	off := make([]int32, n+1)
	adj := make([]int32, 2*m2)
	var shift int32 // off[v] − g.off[v] for the next vertex laid out
	// untouched lays out the vertices from up to (not including) to.
	untouched := func(from, to int) {
		copy(adj[g.off[from]+shift:], g.adj[g.off[from]:g.off[to]])
		for v := from; v < to; v++ {
			off[v] = g.off[v] + shift
		}
	}
	next := 0
	for len(add) > 0 || len(del) > 0 {
		t := uint64(n)
		if len(add) > 0 {
			t = add[0] >> 32
		}
		if len(del) > 0 {
			t = min(t, del[0]>>32)
		}
		v := int(t)
		untouched(next, v)
		off[v] = g.off[v] + shift
		// Merge: the old list minus the deletions, interleaved with the
		// additions. Effective adds are absent from the old list and
		// effective dels present exactly once, so the result stays sorted
		// and unique.
		w := off[v]
		for _, x := range g.Neighbors(v) {
			for len(add) > 0 && add[0]>>32 == t && int32(add[0]) < x {
				adj[w] = int32(add[0])
				w++
				add = add[1:]
			}
			if len(del) > 0 && del[0] == t<<32|uint64(x) {
				del = del[1:]
				continue
			}
			adj[w] = x
			w++
		}
		for len(add) > 0 && add[0]>>32 == t {
			adj[w] = int32(add[0])
			w++
			add = add[1:]
		}
		shift = w - g.off[v+1]
		next = v + 1
	}
	untouched(next, n)
	off[n] = int32(2 * m2)
	return &Graph{nl: g.nl, nr: g.nr, off: off, adj: adj, m: m2}
}
