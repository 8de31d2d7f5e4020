package bigraph

import (
	"errors"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"
)

func TestReadKONECT(t *testing.T) {
	in := `% bip unweighted
% 4 3 5
1 1
1 2
2 3 1.0 1234567
3 5
`
	g, err := ReadKONECT(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.NL() != 3 || g.NR() != 5 {
		t.Fatalf("sizes %dx%d, want 3x5 (from hint)", g.NL(), g.NR())
	}
	if g.NumEdges() != 4 {
		t.Fatalf("m = %d, want 4", g.NumEdges())
	}
	if !g.HasEdge(0, g.Right(0)) || !g.HasEdge(2, g.Right(4)) {
		t.Fatal("edges wrong")
	}
}

func TestReadKONECTNoHint(t *testing.T) {
	in := "% bip\n2 1\n2 4\n1 1\n1 1\n"
	g, err := ReadKONECT(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.NL() != 2 || g.NR() != 4 {
		t.Fatalf("sizes %dx%d from max ids", g.NL(), g.NR())
	}
	if g.NumEdges() != 3 { // duplicate 1-1 merged
		t.Fatalf("m = %d, want 3", g.NumEdges())
	}
}

func TestReadKONECTErrors(t *testing.T) {
	cases := []string{
		"",               // empty
		"% bip\nx y\n",   // non-numeric
		"% bip\n0 1\n",   // 0-based id
		"% bip\n1\n",     // short line
		"% 2 1 1\n1 2\n", // edge exceeds hint
	}
	for _, in := range cases {
		if _, err := ReadKONECT(strings.NewReader(in)); err == nil {
			t.Errorf("ReadKONECT(%q) succeeded, want error", in)
		}
	}
}

// Regression: the "% m nl nr" size hint must never be trusted over the
// edge data — an out-of-range 1-based id is a parse error, on either
// side, whether the hint precedes or follows the edge.
func TestReadKONECTHintBounds(t *testing.T) {
	cases := []struct {
		name, in string
	}{
		{"left exceeds hint", "% 3 2 2\n5 1\n"},
		{"right exceeds hint", "% 3 2 2\n1 5\n"},
		{"both exceed hint", "% 1 2 2\n9 9\n"},
		{"hint after edge", "5 1\n% 3 2 2\n"},
		{"later edge exceeds", "% 3 2 2\n1 1\n2 2\n3 1\n"},
	}
	for _, tc := range cases {
		g, err := ReadKONECT(strings.NewReader(tc.in))
		if err == nil {
			t.Errorf("%s: ReadKONECT(%q) built a %dx%d graph, want error",
				tc.name, tc.in, g.NL(), g.NR())
			continue
		}
		if !strings.Contains(err.Error(), "hint") {
			t.Errorf("%s: error %q does not mention the size hint", tc.name, err)
		}
	}
}

// A tiny input carrying a huge size hint (or huge ids) must be rejected
// by the limited readers before the adjacency arrays are allocated.
func TestReadLimitedVertexCap(t *testing.T) {
	if _, err := ReadKONECTLimited(strings.NewReader("% 1 1000000000 1000000000\n1 1\n"), 1000); err == nil {
		t.Error("ReadKONECTLimited accepted a hint over the vertex cap")
	}
	if _, err := ReadKONECTLimited(strings.NewReader("999999 999999\n"), 1000); err == nil {
		t.Error("ReadKONECTLimited accepted observed ids over the vertex cap")
	}
	if _, err := ReadLimited(strings.NewReader("1000000000 1000000000 1\n0 0\n"), 1000); err == nil {
		t.Error("ReadLimited accepted a header over the vertex cap")
	}
	if g, err := ReadKONECTLimited(strings.NewReader("% 1 3 4\n1 1\n"), 1000); err != nil || g.NL() != 3 || g.NR() != 4 {
		t.Errorf("ReadKONECTLimited rejected an in-cap graph: %v", err)
	}
	// Side sizes whose sum overflows int must fail the cap check, not
	// pass it and panic in makeslice. Uncapped, the readers still refuse
	// more vertices than CSR's int32 ids address.
	for _, tc := range []struct {
		read   func(io.Reader, int) (*Graph, error)
		in     string
		capped bool // over the 10M cap but inside the int32 range
	}{
		{ReadLimited, "9223372036854775807 1\n0 0\n", false},
		{ReadLimited, "9223372036854775807 9223372036854775807\n", false},
		{ReadLimited, "2147483647 1\n", false},
		{ReadLimited, "6000000 6000000\n", true},
		{ReadKONECTLimited, "% 1 9223372036854775807 1\n1 1\n", false},
		{ReadKONECTLimited, "9223372036854775807 1\n", false},
		{ReadKONECTLimited, "9223372036854775807 9223372036854775807 1.0\n", false},
		{ReadKONECTLimited, "% 1 2147483647 1\n", false},
		{ReadKONECTLimited, "2147483648 1\n", false},
	} {
		for _, maxVertices := range []int{10_000_000, 0} {
			if tc.capped && maxVertices == 0 {
				continue
			}
			want := fmt.Sprintf("exceeds the %d-vertex limit", vertexLimit(maxVertices))
			if _, err := tc.read(strings.NewReader(tc.in), maxVertices); err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("cap %d, input %q: error %v, want one containing %q", maxVertices, tc.in, err, want)
			}
		}
	}
}

// Regression: a failing reader (truncated stream, oversized line) must
// surface the scanner error instead of treating the prefix as a complete
// file.
func TestReadKONECTScannerError(t *testing.T) {
	readErr := errors.New("boom: connection reset")
	in := io.MultiReader(strings.NewReader("% bip\n1 1\n2 2\n"), iotest.ErrReader(readErr))
	_, err := ReadKONECT(in)
	if err == nil {
		t.Fatal("ReadKONECT on a failing reader succeeded, want error")
	}
	if !errors.Is(err, readErr) {
		t.Fatalf("error %q does not wrap the underlying read error", err)
	}
}

func TestWriteKONECTRoundTrip(t *testing.T) {
	// Includes an isolated trailing right vertex (index 4) that only the
	// size hint can preserve.
	g := FromEdges(3, 5, [][2]int{{0, 0}, {0, 1}, {1, 2}, {2, 3}})
	var buf strings.Builder
	if err := WriteKONECT(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadKONECT(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatalf("reparse: %v\ninput:\n%s", err, buf.String())
	}
	if g2.NL() != g.NL() || g2.NR() != g.NR() || g2.NumEdges() != g.NumEdges() {
		t.Fatalf("round trip %dx%d/%d edges, want %dx%d/%d",
			g2.NL(), g2.NR(), g2.NumEdges(), g.NL(), g.NR(), g.NumEdges())
	}
	if !reflect.DeepEqual(g2.Edges(), g.Edges()) {
		t.Fatalf("round trip edges %v, want %v", g2.Edges(), g.Edges())
	}
}
