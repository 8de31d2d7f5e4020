package bigraph

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// The ref* functions are the straightforward text IO that the readers,
// writers and Builder must reproduce byte for byte: bufio.Scanner with
// TrimSpace, Fields and Atoi on every line, edges as [2]int32 pairs
// sorted by sort.Slice, and one fmt.Fprintf per line written. They are
// the test oracle only. Their vertex-cap checks add nl+nr, which can
// overflow, and they allocate by the declared sizes, so run them with a
// small cap.

// refBuilder is the pair-slice Builder.
type refBuilder struct {
	nl, nr int
	deg    []int32    // allocated and never read, as in the old Builder
	edges  [][2]int32 // (left unified id, right unified id)
}

func newRefBuilder(nl, nr int) *refBuilder {
	return &refBuilder{nl: nl, nr: nr, deg: make([]int32, nl+nr)}
}

func (b *refBuilder) addEdge(l, r int) {
	if l < 0 || l >= b.nl || r < 0 || r >= b.nr {
		panic(fmt.Sprintf("bigraph: edge (%d,%d) out of range %dx%d", l, r, b.nl, b.nr))
	}
	b.edges = append(b.edges, [2]int32{int32(l), int32(b.nl + r)})
}

func (b *refBuilder) build() *Graph {
	sort.Slice(b.edges, func(i, j int) bool {
		if b.edges[i][0] != b.edges[j][0] {
			return b.edges[i][0] < b.edges[j][0]
		}
		return b.edges[i][1] < b.edges[j][1]
	})
	uniq := b.edges[:0]
	for i, e := range b.edges {
		if i == 0 || e != b.edges[i-1] {
			uniq = append(uniq, e)
		}
	}
	b.edges = uniq
	n := b.nl + b.nr
	deg := make([]int32, n)
	for _, e := range b.edges {
		deg[e[0]]++
		deg[e[1]]++
	}
	off := make([]int32, n+1)
	for v := 0; v < n; v++ {
		off[v+1] = off[v] + deg[v]
	}
	adj := make([]int32, 2*len(b.edges))
	cur := make([]int32, n)
	copy(cur, off[:n])
	for _, e := range b.edges {
		l, r := e[0], e[1]
		adj[cur[l]] = r
		cur[l]++
		adj[cur[r]] = l
		cur[r]++
	}
	return &Graph{nl: b.nl, nr: b.nr, off: off, adj: adj, m: len(b.edges)}
}

func refFromEdges(nl, nr int, edges [][2]int) *Graph {
	b := newRefBuilder(nl, nr)
	for _, e := range edges {
		b.addEdge(e[0], e[1])
	}
	return b.build()
}

func refReadLimited(r io.Reader, maxVertices int) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	var b *refBuilder
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || text[0] == '%' || text[0] == '#' {
			continue
		}
		fields := strings.Fields(text)
		if b == nil {
			if len(fields) < 2 {
				return nil, fmt.Errorf("bigraph: line %d: bad header %q", line, text)
			}
			nl, err1 := strconv.Atoi(fields[0])
			nr, err2 := strconv.Atoi(fields[1])
			if err1 != nil || err2 != nil || nl < 0 || nr < 0 {
				return nil, fmt.Errorf("bigraph: line %d: bad header %q", line, text)
			}
			if maxVertices > 0 && nl+nr > maxVertices {
				return nil, fmt.Errorf("bigraph: line %d: graph %dx%d exceeds the %d-vertex limit", line, nl, nr, maxVertices)
			}
			b = newRefBuilder(nl, nr)
			continue
		}
		if len(fields) != 2 {
			return nil, fmt.Errorf("bigraph: line %d: bad edge %q", line, text)
		}
		l, err1 := strconv.Atoi(fields[0])
		rr, err2 := strconv.Atoi(fields[1])
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("bigraph: line %d: bad edge %q", line, text)
		}
		if l < 0 || l >= b.nl || rr < 0 || rr >= b.nr {
			return nil, fmt.Errorf("bigraph: line %d: edge (%d,%d) out of range %dx%d", line, l, rr, b.nl, b.nr)
		}
		b.addEdge(l, rr)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if b == nil {
		return nil, fmt.Errorf("bigraph: empty input")
	}
	return b.build(), nil
}

func refReadKONECTLimited(r io.Reader, maxVertices int) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	var edges [][2]int
	nl, nr := 0, 0
	hintSeen := false
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		if text[0] == '%' || text[0] == '#' {
			fields := strings.Fields(text[1:])
			if !hintSeen && len(fields) == 3 {
				if _, err1 := strconv.Atoi(fields[0]); err1 == nil {
					a, err2 := strconv.Atoi(fields[1])
					b, err3 := strconv.Atoi(fields[2])
					if err2 == nil && err3 == nil && a > 0 && b > 0 {
						nl, nr = a, b
						hintSeen = true
					}
				}
			}
			continue
		}
		fields := strings.Fields(text)
		if len(fields) < 2 {
			return nil, fmt.Errorf("bigraph: konect line %d: %q", line, text)
		}
		l, err1 := strconv.Atoi(fields[0])
		rr, err2 := strconv.Atoi(fields[1])
		if err1 != nil || err2 != nil || l < 1 || rr < 1 {
			return nil, fmt.Errorf("bigraph: konect line %d: bad ids %q", line, text)
		}
		if hintSeen && (l > nl || rr > nr) {
			return nil, fmt.Errorf("bigraph: konect line %d: edge (%d,%d) exceeds size hint %dx%d", line, l, rr, nl, nr)
		}
		if !hintSeen {
			if l > nl {
				nl = l
			}
			if rr > nr {
				nr = rr
			}
		}
		edges = append(edges, [2]int{l - 1, rr - 1})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("bigraph: konect read after line %d: %w", line, err)
	}
	if len(edges) == 0 && !hintSeen {
		return nil, fmt.Errorf("bigraph: empty konect input")
	}
	if maxVertices > 0 && nl+nr > maxVertices {
		return nil, fmt.Errorf("bigraph: konect graph %dx%d exceeds the %d-vertex limit", nl, nr, maxVertices)
	}
	b := newRefBuilder(nl, nr)
	for _, e := range edges {
		if e[0] >= nl || e[1] >= nr {
			return nil, fmt.Errorf("bigraph: konect edge (%d,%d) exceeds size hint %dx%d", e[0]+1, e[1]+1, nl, nr)
		}
		b.addEdge(e[0], e[1])
	}
	return b.build(), nil
}

func refWrite(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "%d %d %d\n", g.NL(), g.NR(), g.NumEdges()); err != nil {
		return err
	}
	for l := 0; l < g.NL(); l++ {
		for _, r := range g.Neighbors(l) {
			if _, err := fmt.Fprintf(bw, "%d %d\n", l, int(r)-g.NL()); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

func refWriteKONECT(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "%% bip unweighted\n%% %d %d %d\n", g.NumEdges(), g.NL(), g.NR()); err != nil {
		return err
	}
	for l := 0; l < g.NL(); l++ {
		for _, r := range g.Neighbors(l) {
			if _, err := fmt.Fprintf(bw, "%d %d\n", l+1, int(r)-g.NL()+1); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}
