package graph

import (
	"strings"
	"testing"
)

// FuzzParseDef drives ParseDef over arbitrary inputs, checking the
// invariants every accepted def must satisfy: Validate agrees the def is
// well-formed, the canonical rendering re-parses to the identical value
// (round trip), and an accepted figure builds a non-empty graph (a random
// family is not built: a fuzzed size can be huge). The corpus seeds cover
// every family's canonical form plus the boundary shapes that historically
// bite — NaN and out-of-range floats (a naive `p < 0 || p > 1` check lets NaN
// through), missing and unknown parameters, and the deleted legacy colon
// forms.
func FuzzParseDef(f *testing.F) {
	for _, seed := range []string{
		"fig1b", "fig4a", "complete:7",
		"kosr:sink=7,nonsink=4,k=3", "kosr:sink=5,nonsink=2,k=2,extra=0.15",
		"extended:core=5,noncore=3", "extended:core=6,noncore=2,extra=0.2",
		"er:n=16,p=0.3", "er:n=1,p=0", "er:n=8,p=1",
		"geo:n=16,r=0.4", "geo:n=8,r=0", "geo:n=8,r=2",
		"sf:n=16,m=2", "sf:n=2,m=1", "sf:n=8,m=8",
		"er:n=8,p=NaN", "er:n=8,p=1.5", "er:n=8,p=-0.1", "er:n=8,p=1e-300",
		"geo:n=8,r=-1", "geo:n=8,r=Inf", "sf:n=8,m=0", "sf:n=8,m=9",
		"er:", "er:n=8", "er:p=0.3", "er:n=8,q=0.5", "er:n=8,p=0.3,p=0.7",
		"random:5:3:1", "random-ext:5:3", "  er:n=8,p=0.5  ",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		d, err := ParseDef(s)
		if err != nil {
			return
		}
		if verr := d.Validate(); verr != nil {
			t.Fatalf("ParseDef(%q) accepted %+v but Validate rejects it: %v", s, d, verr)
		}
		if d.Kind == DefFigure {
			if b, err := d.Build(0); err != nil || b.G.NumNodes() == 0 {
				t.Fatalf("ParseDef(%q) accepted figure %q, but it builds %v, %v", s, d.Figure, b.G, err)
			}
		}
		canon := d.String()
		if strings.ContainsAny(canon, " \t\n") {
			t.Fatalf("canonical form %q of %q contains whitespace", canon, s)
		}
		again, err := ParseDef(canon)
		if err != nil {
			t.Fatalf("canonical form %q of accepted input %q does not re-parse: %v", canon, s, err)
		}
		if again != d {
			t.Fatalf("round trip drifted: ParseDef(%q) = %+v, ParseDef(%q) = %+v", s, d, canon, again)
		}
	})
}
