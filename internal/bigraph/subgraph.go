package bigraph

import (
	"sort"
	"sync"
)

// inducers recycles the translation tables of Induced and InducedByMask:
// an Inducer's old→new id tables are as long as the host graph, and with
// a pooled one a call costs what it keeps, not what it drops.
var inducers = sync.Pool{New: func() any { return NewInducer() }}

// Induced materialises the subgraph induced by the given unified vertex
// ids. The result keeps the bipartite split; left vertices of the subgraph
// are the kept left vertices in ascending original order, and likewise for
// the right side.
//
// The second return value maps new unified ids back to original unified
// ids (newToOld[newID] = oldID).
func (g *Graph) Induced(keep []int) (*Graph, []int) {
	ind := inducers.Get().(*Inducer)
	defer inducers.Put(ind)
	return ind.Induce(g, keep)
}

// InducedByMask is Induced with membership given as a boolean mask indexed
// by unified id. Vertices with mask[v] == true are kept.
func (g *Graph) InducedByMask(mask []bool) (*Graph, []int) {
	ind := inducers.Get().(*Inducer)
	defer inducers.Put(ind)
	return ind.InduceByMask(g, mask)
}

func sortInts(a []int) {
	if sort.IntsAreSorted(a) {
		return // the common case: callers pass ascending id lists
	}
	sort.Ints(a)
}

// IdentityMap returns the identity id mapping of length n — the newToOld
// table of an unreduced graph.
func IdentityMap(n int) []int {
	m := make([]int, n)
	for i := range m {
		m[i] = i
	}
	return m
}

// ComposeMap rewrites inner (ids into a mid graph) in place so it maps
// directly into the outer graph: inner[i] = outer[inner[i]]. Used to
// collapse chains of Induced/InducedByMask newToOld tables.
func ComposeMap(inner, outer []int) {
	for i, v := range inner {
		inner[i] = outer[v]
	}
}
