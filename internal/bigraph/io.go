package bigraph

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// The text format is a simple edge list:
//
//	% optional comment lines
//	nL nR m
//	l r
//	...
//
// with side-local 0-based indices. Lines starting with '%' or '#' are
// comments (KONECT files use '%'). The m in the header is advisory: it
// only presizes the edge buffer, and the reader trusts the actual number
// of edge lines.

// Write serialises g in the text edge-list format.
func Write(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	buf := appendLine(make([]byte, 0, 64), g.NL(), g.NR(), g.NumEdges())
	if _, err := bw.Write(buf); err != nil {
		return err
	}
	return writeEdges(bw, buf, g, 0)
}

// writeEdges writes one "l r" line per edge in CSR order, adding base to
// both side-local indices, and flushes bw. buf is scratch space.
func writeEdges(bw *bufio.Writer, buf []byte, g *Graph, base int) error {
	for l := 0; l < g.nl; l++ {
		for _, r := range g.Neighbors(l) {
			buf = appendLine(buf[:0], l+base, int(r)-g.nl+base)
			if _, err := bw.Write(buf); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// appendLine appends vs in decimal, separated by spaces, and a newline.
func appendLine(buf []byte, vs ...int) []byte {
	for i, v := range vs {
		if i > 0 {
			buf = append(buf, ' ')
		}
		buf = strconv.AppendInt(buf, int64(v), 10)
	}
	return append(buf, '\n')
}

// Read parses the text edge-list format produced by Write. Servers
// parsing untrusted uploads should use ReadLimited: the header alone
// sizes the graph, so a tiny malicious file can demand a multi-gigabyte
// allocation here.
func Read(r io.Reader) (*Graph, error) {
	return ReadLimited(r, 0)
}

// ReadLimited is Read with a cap on the total vertex count declared by
// the header (|L|+|R|); maxVertices <= 0 means no cap beyond the int32
// range of vertex ids. The cap is enforced before any size-proportional
// allocation.
func ReadLimited(r io.Reader, maxVertices int) (*Graph, error) {
	lr := newLineReader(r)
	limit := vertexLimit(maxVertices)
	var b *Builder
	for {
		line, err := lr.next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		if i := skipSpace(line, 0); i == len(line) || line[i] == '%' || line[i] == '#' {
			continue
		}
		if b != nil {
			if l, rr, j, ok := plainPair(line); ok && skipSpace(line, j) == len(line) && l < b.nl && rr < b.nr {
				b.keys = append(b.keys, edgeKey(l, rr))
				continue
			}
		}
		if b, err = parseEdgeListLine(b, string(line), lr.n, limit); err != nil {
			return nil, err
		}
	}
	if b == nil {
		return nil, fmt.Errorf("bigraph: empty input")
	}
	return b.Build(), nil
}

// parseEdgeListLine is the general parser for line n of the edge-list
// format: the header, which creates the builder, or an edge line the
// fast path did not take.
func parseEdgeListLine(b *Builder, line string, n, limit int) (*Builder, error) {
	text := strings.TrimSpace(line)
	if text == "" || text[0] == '%' || text[0] == '#' {
		return b, nil
	}
	fields := strings.Fields(text)
	if b == nil {
		if len(fields) < 2 {
			return nil, fmt.Errorf("bigraph: line %d: bad header %q", n, text)
		}
		nl, err1 := strconv.Atoi(fields[0])
		nr, err2 := strconv.Atoi(fields[1])
		if err1 != nil || err2 != nil || nl < 0 || nr < 0 {
			return nil, fmt.Errorf("bigraph: line %d: bad header %q", n, text)
		}
		if overLimit(nl, nr, limit) {
			return nil, fmt.Errorf("bigraph: line %d: graph %dx%d exceeds the %d-vertex limit", n, nl, nr, limit)
		}
		b = NewBuilder(nl, nr)
		if len(fields) > 2 {
			if m, err := strconv.Atoi(fields[2]); err == nil && m > 0 {
				b.keys = make([]uint64, 0, min(m, presizeEdges))
			}
		}
		return b, nil
	}
	if len(fields) != 2 {
		return nil, fmt.Errorf("bigraph: line %d: bad edge %q", n, text)
	}
	l, err1 := strconv.Atoi(fields[0])
	rr, err2 := strconv.Atoi(fields[1])
	if err1 != nil || err2 != nil {
		return nil, fmt.Errorf("bigraph: line %d: bad edge %q", n, text)
	}
	if l < 0 || l >= b.nl || rr < 0 || rr >= b.nr {
		return nil, fmt.Errorf("bigraph: line %d: edge (%d,%d) out of range %dx%d", n, l, rr, b.nl, b.nr)
	}
	b.AddEdge(l, rr)
	return b, nil
}
