package bigraph

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"
)

// ReadKONECT parses the KONECT out.* bipartite edge-list format:
//
//	% bip unweighted
//	% <m> <nL> <nR>        (optional size hint)
//	<l> <r> [weight [timestamp]]
//	...
//
// Vertex ids are 1-based and the two columns index the two sides
// independently. Weights and timestamps are ignored; duplicate edges are
// merged. Side sizes are taken from the size hint when present, otherwise
// from the maximum observed ids.
//
// The parser is written for untrusted input: an edge id that exceeds the
// hinted side size, a malformed line, and an underlying read error (a
// truncated stream, a line over 16 MiB) all return a clean error instead
// of a silently wrong graph. ReadKONECT itself bounds the graph only by
// the int32 range of vertex ids; servers parsing untrusted uploads should
// use ReadKONECTLimited, which caps the vertex count before the
// adjacency arrays are allocated (a 30-byte file with a huge size hint
// would otherwise demand gigabytes).
func ReadKONECT(r io.Reader) (*Graph, error) {
	return ReadKONECTLimited(r, 0)
}

// ReadKONECTLimited is ReadKONECT with a cap on the total vertex count
// (|L|+|R|, whether it comes from the size hint or from observed ids);
// maxVertices <= 0 means no cap beyond the int32 range of vertex ids.
// The cap is enforced before any size-proportional allocation.
func ReadKONECTLimited(r io.Reader, maxVertices int) (*Graph, error) {
	lr := newLineReader(r)
	var p konectParser
	for {
		line, err := lr.next()
		if err == io.EOF {
			break
		}
		if err != nil {
			// Read errors (short reads, bufio.ErrTooLong) are real I/O
			// failures: surfacing them keeps a truncated upload from
			// parsing as a smaller, valid-looking graph.
			return nil, fmt.Errorf("bigraph: konect read after line %d: %w", lr.n, err)
		}
		// Once the hint is fixed, a comment carries nothing.
		if i := skipSpace(line, 0); i == len(line) || p.hintSeen && (line[i] == '%' || line[i] == '#') {
			continue
		}
		// Weight and timestamp columns after the two ids are skipped.
		if l, rr, _, ok := plainPair(line); ok && l >= 1 && rr >= 1 && (!p.hintSeen || l <= p.nl && rr <= p.nr) {
			p.edge(l, rr)
			continue
		}
		if err := p.parseLine(string(line), lr.n); err != nil {
			return nil, err
		}
	}
	if len(p.keys) == 0 && p.big[0] == 0 && !p.hintSeen {
		return nil, fmt.Errorf("bigraph: empty konect input")
	}
	nl, nr := p.nl, p.nr
	if limit := vertexLimit(maxVertices); overLimit(nl, nr, limit) {
		return nil, fmt.Errorf("bigraph: konect graph %dx%d exceeds the %d-vertex limit", nl, nr, limit)
	}
	// Edges read before a late hint line escaped the inline check. They
	// are the first hintAt keys, unless an edge with an id past the
	// int32 range (so past any hint under the limit) came earlier still.
	for _, k := range p.keys[:min(p.hintAt, len(p.keys))] {
		if l, rr := int(k>>32), int(uint32(k)); l >= nl || rr >= nr {
			return nil, fmt.Errorf("bigraph: konect edge (%d,%d) exceeds size hint %dx%d", l+1, rr+1, nl, nr)
		}
	}
	if p.big[0] != 0 {
		return nil, fmt.Errorf("bigraph: konect edge (%d,%d) exceeds size hint %dx%d", p.big[0], p.big[1], nl, nr)
	}
	return buildCSR(nl, nr, sortedKeys(p.keys)), nil
}

// konectParser is ReadKONECTLimited's state between lines.
type konectParser struct {
	nl, nr   int // from the size hint, else the largest ids so far
	hintSeen bool
	hintAt   int      // len(keys) when the hint line came
	keys     []uint64 // 0-based edge keys in file order, up to big
	// big is the first edge with an id past the int32 range, which dooms
	// the parse: the graph exceeds the vertex limit unless a later hint
	// under the limit makes this edge exceed the hint. Keys stop at it.
	big [2]int
}

// edge records the 1-based edge (l, rr), whose ids are valid so far.
func (p *konectParser) edge(l, rr int) {
	if !p.hintSeen {
		p.nl, p.nr = max(p.nl, l), max(p.nr, rr)
	}
	switch {
	case p.big[0] != 0:
	case l > math.MaxInt32 || rr > math.MaxInt32:
		p.big = [2]int{l, rr}
	default:
		p.keys = append(p.keys, edgeKey(l-1, rr-1))
	}
}

// parseLine is the general parser for line n, which the fast path did
// not take.
func (p *konectParser) parseLine(line string, n int) error {
	text := strings.TrimSpace(line)
	if text == "" {
		return nil
	}
	if text[0] == '%' || text[0] == '#' {
		// A comment of the form "% m nl nr" is the size hint.
		fields := strings.Fields(text[1:])
		if !p.hintSeen && len(fields) == 3 {
			if m, err1 := strconv.Atoi(fields[0]); err1 == nil {
				a, err2 := strconv.Atoi(fields[1])
				b, err3 := strconv.Atoi(fields[2])
				if err2 == nil && err3 == nil && a > 0 && b > 0 {
					p.nl, p.nr = a, b
					p.hintSeen, p.hintAt = true, len(p.keys)
					p.keys = slices.Grow(p.keys, min(max(m, 0), presizeEdges))
				}
			}
		}
		return nil
	}
	fields := strings.Fields(text)
	if len(fields) < 2 {
		return fmt.Errorf("bigraph: konect line %d: %q", n, text)
	}
	l, err1 := strconv.Atoi(fields[0])
	rr, err2 := strconv.Atoi(fields[1])
	if err1 != nil || err2 != nil || l < 1 || rr < 1 {
		return fmt.Errorf("bigraph: konect line %d: bad ids %q", n, text)
	}
	if p.hintSeen && (l > p.nl || rr > p.nr) {
		// Never trust the size hint over the data: an out-of-range id
		// is a corrupt file, not licence to index past the sides.
		return fmt.Errorf("bigraph: konect line %d: edge (%d,%d) exceeds size hint %dx%d", n, l, rr, p.nl, p.nr)
	}
	p.edge(l, rr)
	return nil
}

// WriteKONECT serialises g in the KONECT out.* format, including the
// "% m nL nR" size hint so that isolated boundary vertices survive a
// round trip: ReadKONECT(WriteKONECT(g)) reproduces g exactly whenever
// both sides are non-empty (the hint line requires positive sizes).
func WriteKONECT(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	buf := append(make([]byte, 0, 64), "% bip unweighted\n% "...)
	buf = appendLine(buf, g.NumEdges(), g.NL(), g.NR())
	if _, err := bw.Write(buf); err != nil {
		return err
	}
	return writeEdges(bw, buf, g, 1)
}
