package bigraph

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// FuzzGraphApply is the differential fuzz harness for the copy-on-write
// mutation path behind the mbbserved edge endpoints: a byte-encoded
// graph plus delta is applied via Graph.Apply and via a from-scratch
// Builder rebuild, and the two must agree exactly (shape, edge set,
// sorted adjacency); Apply's CSR arrays must also equal those of the
// per-vertex reference loop (refPatched). Bytes decode in pairs as (l, r) indices mod the
// side sizes; base/add/del streams are split by length prefixes, so any
// mutated input is a valid case. The nightly workflow runs it for
// minutes; CI runs a bounded smoke.
func FuzzGraphApply(f *testing.F) {
	f.Add(uint8(3), uint8(3), []byte{0, 0, 0, 1, 1, 0, 1, 1}, []byte{2, 2}, []byte{0, 0})
	f.Add(uint8(1), uint8(1), []byte{}, []byte{0, 0}, []byte{0, 0})
	f.Add(uint8(5), uint8(2), []byte{0, 0, 1, 1, 2, 0, 3, 1, 4, 0}, []byte{}, []byte{2, 0, 4, 0})
	f.Add(uint8(7), uint8(7), []byte{1, 2, 3, 4, 5, 6}, []byte{6, 6, 6, 5, 5, 6}, []byte{})
	f.Add(uint8(0), uint8(4), []byte{}, []byte{}, []byte{})
	f.Fuzz(func(t *testing.T, nlb, nrb uint8, base, add, del []byte) {
		nl, nr := int(nlb%16), int(nrb%16)
		pairs := func(data []byte) [][2]int {
			if nl == 0 || nr == 0 {
				return nil
			}
			var out [][2]int
			for i := 0; i+1 < len(data); i += 2 {
				out = append(out, [2]int{int(data[i]) % nl, int(data[i+1]) % nr})
			}
			return out
		}
		g := FromEdges(nl, nr, pairs(base))
		d := Delta{Add: pairs(add), Del: pairs(del)}
		got, eff, err := g.Apply(d)
		if err != nil {
			t.Fatalf("in-range delta rejected: %v", err)
		}
		want := applyByRebuild(g, d)
		if got.NL() != want.NL() || got.NR() != want.NR() || got.NumEdges() != want.NumEdges() {
			t.Fatalf("shape %dx%d/%d, want %dx%d/%d",
				got.NL(), got.NR(), got.NumEdges(), want.NL(), want.NR(), want.NumEdges())
		}
		if !reflect.DeepEqual(got.Edges(), want.Edges()) {
			t.Fatalf("edge sets diverged: got %v want %v", got.Edges(), want.Edges())
		}
		if g.NumEdges()-len(eff.Del)+len(eff.Add) != got.NumEdges() {
			t.Fatalf("effective counts inconsistent: m %d -%d +%d != %d",
				g.NumEdges(), len(eff.Del), len(eff.Add), got.NumEdges())
		}
		sameAsPatchedReference(t, "fuzz", g, got, eff)
	})
}

// FuzzReadKONECT is the malformed-input fuzz harness for the KONECT
// parser, the format the mbbserved upload endpoint exposes to untrusted
// clients. Invariants: ReadKONECT never panics and matches the reference
// reader (graph or error text); when it accepts an input, the parse →
// WriteKONECT → reparse round trip reproduces the graph exactly (sizes
// and edge set). CI runs it as a bounded smoke step next to
// FuzzSolversAgree.
func FuzzReadKONECT(f *testing.F) {
	seeds := []string{
		// Well-formed, with and without the size hint.
		"% bip unweighted\n% 4 3 5\n1 1\n1 2\n2 3 1.0 1234567\n3 5\n",
		"% bip\n2 1\n2 4\n1 1\n1 1\n",
		"1 1\n",
		// Comments, blank lines, '#' comments, hint-lookalike comments.
		"% bip unweighted\n\n# a comment\n%  1 2 3 4\n1 1\n\n2 2\n",
		"% x y z\n1 1\n",
		// Hint abuse: out-of-range edges, hint after edges, zero/negative
		// sizes, duplicate hints.
		"% 3 2 2\n5 1\n",
		"5 1\n% 3 2 2\n",
		"% 1 0 5\n1 1\n",
		"% 1 -2 5\n1 1\n",
		"% 2 2 2\n% 9 9 9\n2 2\n",
		// Garbage.
		"",
		"hello world\n",
		"1\n",
		"0 0\n",
		"-1 -1\n",
		"1 999999999999999999999999\n",
		"% 1 1 1\n",
		"\x00\x01\x02\n",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data string) {
		// Fuzz through the limited reader — the service's path — with a
		// small cap: an unlimited parse would let a mutated size hint
		// ("% 1 9e8 9e8") demand gigabytes and OOM the fuzz run.
		const maxVerts = refCap
		g, err := ReadKONECTLimited(strings.NewReader(data), maxVerts)
		wg, werr, panicked := callRef(refReadKONECTLimited, strings.NewReader(data), maxVerts)
		sameOutcome(t, fmt.Sprintf("input %q", data), g, err, wg, werr, panicked)
		if err != nil {
			return
		}
		var buf strings.Builder
		if err := WriteKONECT(&buf, g); err != nil {
			t.Fatalf("WriteKONECT: %v", err)
		}
		g2, err := ReadKONECTLimited(strings.NewReader(buf.String()), maxVerts)
		if err != nil {
			t.Fatalf("reparse rejected WriteKONECT output: %v\n%s", err, buf.String())
		}
		if g2.NL() != g.NL() || g2.NR() != g.NR() || g2.NumEdges() != g.NumEdges() {
			t.Fatalf("round trip %dx%d/%d edges, want %dx%d/%d (input %q)",
				g2.NL(), g2.NR(), g2.NumEdges(), g.NL(), g.NR(), g.NumEdges(), data)
		}
		if !reflect.DeepEqual(g2.Edges(), g.Edges()) {
			t.Fatalf("round trip changed the edge set (input %q)", data)
		}
	})
}
