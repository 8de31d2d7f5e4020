package bigraph

import (
	"bufio"
	"io"
	"math"
)

// Both text formats are read by one tokenizer. A lineReader hands out
// each line as a slice of its read buffer, and the readers' fast paths
// split it on ASCII space and parse plain decimal fields in place. Any
// line the fast path does not take whole (a header, a comment it must
// read, a sign, a non-ASCII byte, an 18+ digit number, anything
// malformed) goes through the reader's general parser, which uses
// strings.TrimSpace, strings.Fields and strconv.Atoi; so every accepted
// input, graph, error text and line number is the same as with that
// parser alone. Read errors are the exception: see lineReader.next.

// maxLineBytes caps one line. A longer line fails with bufio.ErrTooLong,
// the error bufio.Scanner gives at the same size.
const maxLineBytes = 1 << 24

// presizeEdges bounds how many edges a header's advisory edge count may
// reserve room for before any edge is read.
const presizeEdges = 1 << 16

// lineReader splits a text body into lines.
type lineReader struct {
	br   *bufio.Reader
	long []byte // a line longer than br's buffer, pieced together
	n    int    // lines returned so far
}

func newLineReader(r io.Reader) *lineReader {
	return &lineReader{br: bufio.NewReaderSize(r, 64<<10)}
}

// next returns the next line without its '\n'. The slice is valid until
// the following call. At the end of the input next returns io.EOF. A
// read error is returned as it is, even when it cuts a line short: the
// cut-off piece is not parsed, so the error (an upload over its size
// cap, say) is never reported as a malformed last line.
func (lr *lineReader) next() ([]byte, error) {
	line, err := lr.br.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		lr.long = append(lr.long[:0], line...)
		for err == bufio.ErrBufferFull && len(lr.long) < maxLineBytes {
			line, err = lr.br.ReadSlice('\n')
			lr.long = append(lr.long, line...)
		}
		line = lr.long
	}
	switch {
	case err == nil:
		line = line[:len(line)-1]
	case err == io.EOF && len(line) > 0: // a last line without '\n'
	case err == bufio.ErrBufferFull:
		return nil, bufio.ErrTooLong
	default:
		return nil, err
	}
	if len(line) >= maxLineBytes {
		return nil, bufio.ErrTooLong
	}
	lr.n++
	return line, nil
}

// asciiSpace marks the ASCII bytes that strings.Fields and
// strings.TrimSpace treat as space.
var asciiSpace = [256]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// skipSpace returns the index of the first byte of s at or after i that
// is not ASCII space.
func skipSpace(s []byte, i int) int {
	for i < len(s) && asciiSpace[s[i]] {
		i++
	}
	return i
}

// plainUint parses the field of 1 to 18 ASCII digits that starts at s[i]
// and ends at ASCII space or the end of s; j is the index after it. ok
// is false for any other field, which the general parser then reads.
func plainUint(s []byte, i int) (v, j int, ok bool) {
	for j = i; j < len(s); j++ {
		d := s[j] - '0'
		if d > 9 {
			break
		}
		v = v*10 + int(d) // may wrap past 18 digits, which are refused
	}
	n := j - i
	return v, j, n > 0 && n <= 18 && (j == len(s) || asciiSpace[s[j]])
}

// plainPair parses the two plain fields that open s after leading space;
// j is the index after the second.
func plainPair(s []byte) (a, b, j int, ok bool) {
	if a, j, ok = plainUint(s, skipSpace(s, 0)); ok {
		b, j, ok = plainUint(s, skipSpace(s, j))
	}
	return a, b, j, ok
}

// overLimit reports whether nl+nr vertices exceed limit, for
// non-negative sides and a positive limit, without overflowing.
func overLimit(nl, nr, limit int) bool { return nl > limit-nr }

// vertexLimit is the vertex cap a reader enforces: maxVertices when it
// is positive, and never more than CSR's int32 ids can address.
func vertexLimit(maxVertices int) int {
	if maxVertices <= 0 || maxVertices > math.MaxInt32 {
		return math.MaxInt32
	}
	return maxVertices
}
