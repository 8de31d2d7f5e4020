package bigraph

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"
)

type readFunc func(io.Reader, int) (*Graph, error)

// The two text formats, each with its reader and the reference reader.
var textFormats = []struct {
	name      string
	read, ref readFunc
}{
	{"edgelist", ReadLimited, refReadLimited},
	{"konect", ReadKONECTLimited, refReadKONECTLimited},
}

// refCap keeps the reference readers' overflowing vertex-cap check away
// from size-proportional allocations.
const refCap = 1 << 16

// callRef runs a reference reader. The references panic where their
// cap check wraps around; panicked reports that.
func callRef(ref readFunc, r io.Reader, maxVertices int) (g *Graph, err error, panicked bool) {
	defer func() {
		if recover() != nil {
			g, err, panicked = nil, nil, true
		}
	}()
	g, err = ref(r, maxVertices)
	return g, err, false
}

// sameOutcome fails t unless the reader's and the reference's results
// are the same graph (shape, offsets and adjacency) or errors with the
// same text. Where the reference panicked, its cap check having
// overflowed, the reader must report the vertex limit.
func sameOutcome(t *testing.T, what string, g *Graph, err error, wg *Graph, werr error, refPanicked bool) {
	t.Helper()
	if refPanicked {
		if err == nil || !strings.Contains(err.Error(), "vertex limit") {
			t.Fatalf("%s: reference overflowed its cap check, reader gave %v", what, err)
		}
		return
	}
	if (err == nil) != (werr == nil) || err != nil && err.Error() != werr.Error() {
		t.Fatalf("%s: error %v, reference %v", what, err, werr)
	}
	if err == nil && !reflect.DeepEqual(*g, *wg) {
		t.Fatalf("%s: graph %dx%d/%d differs from the reference's %dx%d/%d",
			what, g.NL(), g.NR(), g.NumEdges(), wg.NL(), wg.NR(), wg.NumEdges())
	}
}

// checkAgainstReference reads in with both readers of a format, the
// reader's through several reader shapes, and requires the same outcome.
func checkAgainstReference(t *testing.T, read, ref readFunc, in string, maxVertices int) {
	t.Helper()
	wg, werr, panicked := callRef(ref, strings.NewReader(in), maxVertices)
	shapes := []func(string) io.Reader{
		func(s string) io.Reader { return strings.NewReader(s) },
		func(s string) io.Reader { return iotest.OneByteReader(strings.NewReader(s)) },
		func(s string) io.Reader { return iotest.DataErrReader(strings.NewReader(s)) },
	}
	for i, shape := range shapes {
		g, err := read(shape(in), maxVertices)
		sameOutcome(t, fmt.Sprintf("reader %d, cap %d, input %q", i, maxVertices, in), g, err, wg, werr, panicked)
	}
}

// checkReadError requires that a read error after in wins over parsing
// the line it cuts short: the outcome is the reference's on the complete
// lines of in followed by the same error.
func checkReadError(t *testing.T, read, ref readFunc, in string) {
	t.Helper()
	boom := errors.New("connection reset")
	whole := in[:strings.LastIndexByte(in, '\n')+1]
	_, werr, panicked := callRef(ref, io.MultiReader(strings.NewReader(whole), iotest.ErrReader(boom)), refCap)
	_, err := read(io.MultiReader(strings.NewReader(in), iotest.ErrReader(boom)), refCap)
	if err == nil {
		t.Fatalf("input %q then a read error: parsed, want an error", in)
	}
	if panicked {
		return
	}
	if err.Error() != werr.Error() {
		t.Fatalf("input %q then a read error: %v, reference on the complete lines %v", in, err, werr)
	}
}

// Pieces the random inputs are made of: plain and adversarial numbers,
// ASCII and Unicode spaces, comments, hint lines and KONECT columns.
var (
	fuzzNumbers = []string{
		"0", "1", "2", "3", "4", "5", "7", "007", "00", "+1", "-0", "-1", "+0",
		"999999999999999999", "1000000000000000000", "9223372036854775807",
		"9223372036854775808", "18446744073709551616", "000000000000000000003",
		"2147483647", "2147483648", "4294967297", "1_0", "0x1", "1e3", "1.0",
		"\u0661", "x", "",
	}
	fuzzSpaces = []string{
		" ", " ", " ", "\t", "  ", "\v", "\f", "\r", "\u0085", "\u00a0", "\u2003",
		"\u3000", "\x85", "\xa0", "\x00",
	}
	fuzzEnds     = []string{"\n", "\n", "\n", "\r\n", "\r\r\n", " \n", "\u00a0\n"}
	fuzzComments = []string{
		"% bip unweighted", "# comment", "  % indented", "%", "#", "\u00a0% after nbsp",
		"% 3 2 2", "% 4 3 5", "%4 3 5", "# 2 2 2", "% 1 9223372036854775807 9223372036854775807",
		"% 1 0 5", "% 1 -2 5", "% x 3 3", "% 1 3 3 3", "% 1 +3 003", "% 1\u00a03 3",
	}
	fuzzColumns = []string{"1", "1.0", "-3e5", "1234567", "\u00e9", "x y", "\u00a0"}
)

func pick(rng *rand.Rand, s []string) string { return s[rng.Intn(len(s))] }

// noisyText makes the random text bodies: one piece in every noise is
// adversarial, the rest plain.
type noisyText struct {
	rng   *rand.Rand
	noise int
}

// number is mostly an id in [base, base+n), sometimes one past it or an
// adversarial token.
func (nt noisyText) number(base, n int) string {
	switch nt.rng.Intn(nt.noise) {
	case 0:
		return pick(nt.rng, fuzzNumbers)
	case 1:
		return fmt.Sprint(base + n)
	}
	return fmt.Sprint(base + nt.rng.Intn(n))
}

// space is mostly one ASCII space.
func (nt noisyText) space() string {
	if nt.rng.Intn(nt.noise) > 0 {
		return " "
	}
	return pick(nt.rng, fuzzSpaces)
}

// randomText builds a text graph body in the given format, with
// adversarial tokens, spaces, comments and line ends mixed in at a
// random rate, and sometimes no final newline.
func randomText(rng *rand.Rand, konect bool) string {
	nt := noisyText{rng, []int{4, 20, 200}[rng.Intn(3)]}
	var sb strings.Builder
	nl, nr := 1+rng.Intn(6), 1+rng.Intn(6)
	base := 0
	if konect {
		base = 1
	}
	if !konect && rng.Intn(nt.noise) > 0 {
		sb.WriteString(nt.number(nl, 1) + nt.space() + nt.number(nr, 1))
		if rng.Intn(2) == 0 {
			sb.WriteString(nt.space() + nt.number(0, 30))
		}
		sb.WriteString(pick(rng, fuzzEnds))
	}
	for i, lines := 0, rng.Intn(14); i < lines; i++ {
		switch k := rng.Intn(12); {
		case k == 0:
			sb.WriteString(pick(rng, fuzzComments))
		case k == 1:
			if rng.Intn(2) == 0 {
				sb.WriteString(nt.space())
			}
		case k == 2 && konect:
			fmt.Fprintf(&sb, "%% %d %d %d", rng.Intn(9), nl+rng.Intn(2), nr+rng.Intn(2))
		default:
			if rng.Intn(5) == 0 {
				sb.WriteString(nt.space())
			}
			sb.WriteString(nt.number(base, nl) + nt.space() + nt.number(base, nr))
			if konect && rng.Intn(3) == 0 {
				sb.WriteString(nt.space() + pick(rng, fuzzColumns))
			} else if rng.Intn(nt.noise) == 0 {
				sb.WriteString(nt.space() + nt.number(0, 4))
			}
			if rng.Intn(6) == 0 {
				sb.WriteString(nt.space())
			}
		}
		if i < lines-1 || rng.Intn(4) > 0 {
			sb.WriteString(pick(rng, fuzzEnds))
		}
	}
	return sb.String()
}

// TestReadMatchesReference is the differential test of both readers
// against the Scanner/Fields/Atoi references on random and adversarial
// bodies: the same graphs and the same error texts, under a generous
// and a tight vertex cap, through whole, one-byte and EOF-with-data
// readers; and, after a read error, the reference's outcome on the
// complete lines.
func TestReadMatchesReference(t *testing.T) {
	fixed := []string{
		"",
		"\n\n",
		"3 3 2\n0 0\n2 2",                  // no final newline
		"3 3 2\r\n0 0\r\n2 2\r\n",          // CRLF
		"2 2\n0\u00851\n1\u00a00\n",        // Unicode spaces inside a line
		"2 2\n\u20030 1\u2003\n",           // and around it
		"2 2\n+1 -0\n01 001\n",             // signs and leading zeros
		"2 2\n0 0000000000000000001\n",     // 19 digits, in range
		"2 2\n0 99999999999999999999\n",    // 20 digits, out of int range
		"2 2 foo\n1 1\n",                   // a header's third field is free
		"% c\n2 2\n# c\n0 1\n  % c\n1 0\n", // comments anywhere
		"2 2\n0 1 2\n",                     // three fields
		"2 2\n0 2\n",                       // out of range
		"2 2\n0 \x85\n",                    // invalid UTF-8
		"9223372036854775807 1\n0 0\n",     // nl+nr overflows int
		"% 1 9223372036854775807 1\n1 1\n",
		"9223372036854775807 9223372036854775807\n",
		"% bip unweighted\n% 4 3 5\n1 1\n1 2\n2 3 1.0 1234567\n3 5\n",
		"% bip\n2 1\n2 4\n1 1\n1 1\n",
		"5 1\n% 3 2 2\n",
		"1 1\n3000000000 1\n2 2\n% 3 2 2\n",
		"3000000000 1\n% 3 2 2\n",
		"1 1\n3000000000 1\nx y\n",
		"% 2 2 2\n% 9 9 9\n2 2\n",
		"1 1 \u00e9 \u00a0\n2 2\t1.0\n",
		"1\u00a02\u00a03\n",
	}
	rng := rand.New(rand.NewSource(23))
	for _, f := range textFormats {
		t.Run(f.name, func(t *testing.T) {
			inputs := append([]string(nil), fixed...)
			for i := 0; i < 1500; i++ {
				inputs = append(inputs, randomText(rng, f.name == "konect"))
			}
			for _, in := range inputs {
				for _, maxVertices := range []int{refCap, 4} {
					checkAgainstReference(t, f.read, f.ref, in, maxVertices)
				}
				checkReadError(t, f.read, f.ref, in)
			}
		})
	}
}

// TestReadLongLines covers lines past the 64 KiB read buffer and the
// 16 MiB line cap, which both readers answer with bufio.ErrTooLong.
func TestReadLongLines(t *testing.T) {
	pad := func(n int) string { return strings.Repeat(" ", n) }
	inputs := []string{
		"2 2\n%" + pad(100<<10) + "\n0 1\n",
		"2 2\n0" + pad(200<<10) + "1\n",
		"% 1 2 2\n1" + pad(70<<10) + "2 1.0\n",
		"2 2\n%" + pad(maxLineBytes-2) + "\n1 1\n", // the longest line
		"2 2\n%" + pad(maxLineBytes-1) + "\n1 1\n", // one byte more
		"2 2\n%" + pad(maxLineBytes-2),             // the longest last line
		"2 2\n%" + pad(maxLineBytes-1),
	}
	for _, f := range textFormats {
		for _, in := range inputs {
			g, err := f.read(strings.NewReader(in), refCap)
			wg, werr := f.ref(strings.NewReader(in), refCap)
			sameOutcome(t, fmt.Sprintf("%s, %d-byte input", f.name, len(in)), g, err, wg, werr, false)
		}
	}
}

// TestBuildMatchesReference pins Builder against the pair-slice build,
// offsets and adjacency alike, including a second Build after more
// edges.
func TestBuildMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 500; trial++ {
		nl, nr := rng.Intn(30), rng.Intn(30)
		var edges [][2]int
		if nl > 0 && nr > 0 {
			for i := rng.Intn(3 * (nl + nr)); i > 0; i-- {
				edges = append(edges, [2]int{rng.Intn(nl), rng.Intn(nr)})
			}
		}
		if rng.Intn(3) == 0 {
			edges = FromEdges(nl, nr, edges).Edges() // sorted, as Write emits
		}
		half := len(edges) / 2
		b, rb := NewBuilder(nl, nr), newRefBuilder(nl, nr)
		for _, e := range edges[:half] {
			b.AddEdge(e[0], e[1])
			rb.addEdge(e[0], e[1])
		}
		if g, wg := b.Build(), rb.build(); !reflect.DeepEqual(*g, *wg) {
			t.Fatalf("trial %d: first build differs", trial)
		}
		for _, e := range edges[half:] {
			b.AddEdge(e[0], e[1])
			rb.addEdge(e[0], e[1])
		}
		if g, wg := b.Build(), rb.build(); !reflect.DeepEqual(*g, *wg) {
			t.Fatalf("trial %d: build after more edges differs", trial)
		}
	}
}

// TestWriteMatchesReference pins the bytes Write and WriteKONECT emit
// against the fmt.Fprintf writers.
func TestWriteMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 200; trial++ {
		nl, nr := rng.Intn(1200), rng.Intn(40)
		var edges [][2]int
		if nl > 0 && nr > 0 {
			for i := rng.Intn(2000); i > 0; i-- {
				edges = append(edges, [2]int{rng.Intn(nl), rng.Intn(nr)})
			}
		}
		g := FromEdges(nl, nr, edges)
		for _, w := range []struct {
			name       string
			write, ref func(io.Writer, *Graph) error
		}{{"Write", Write, refWrite}, {"WriteKONECT", WriteKONECT, refWriteKONECT}} {
			var got, want bytes.Buffer
			if err := w.write(&got, g); err != nil {
				t.Fatal(err)
			}
			if err := w.ref(&want, g); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatalf("%s of a %dx%d/%d graph differs from the fmt writer's bytes", w.name, nl, nr, g.NumEdges())
			}
		}
	}
}

// FuzzReadEdgeList is the differential fuzz harness for the edge-list
// reader, the default upload format of mbbserved: on any input it must
// match the reference reader (graph or error text), and an accepted
// graph must survive Write and a reparse. CI runs it as a bounded smoke
// step.
func FuzzReadEdgeList(f *testing.F) {
	for _, s := range []string{
		"3 3 9\n0 0\n0 1\n0 2\n1 0\n1 1\n1 2\n2 0\n2 1\n2 2\n",
		"% c\n2 2 2\r\n0 1\r\n1 0",
		"2 2\n+1 -0\n01 001\n",
		"2 2\n0\u00a01\n1\u20030\n",
		"2 2\n0 99999999999999999999\n",
		"9223372036854775807 1\n0 0\n",
		"",
		"x y\n",
		"2 2 1\n5 0\n",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data string) {
		g, err := ReadLimited(strings.NewReader(data), refCap)
		wg, werr, panicked := callRef(refReadLimited, strings.NewReader(data), refCap)
		sameOutcome(t, fmt.Sprintf("input %q", data), g, err, wg, werr, panicked)
		if err != nil {
			return
		}
		var buf strings.Builder
		if err := Write(&buf, g); err != nil {
			t.Fatalf("Write: %v", err)
		}
		g2, err := ReadLimited(strings.NewReader(buf.String()), refCap)
		if err != nil {
			t.Fatalf("reparse rejected Write output: %v", err)
		}
		if !reflect.DeepEqual(*g2, *g) {
			t.Fatalf("round trip changed the graph (input %q)", data)
		}
	})
}
