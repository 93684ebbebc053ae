package scenario

import (
	"strings"
	"testing"

	"github.com/bftcup/bftcup/internal/core"
	"github.com/bftcup/bftcup/internal/graph"
)

// TestInsecureCompileKey pins the cache-identity half of the insecure suite:
// the flag must split the compile key (a Compiled bakes in which key material
// Run generates, so an insecure cell must never reuse a secure cache entry)
// without perturbing secure keys, which long predate the flag and anchor the
// per-worker compile cache.
func TestInsecureCompileKey(t *testing.T) {
	p := Params{
		Graph: graph.Def{Kind: graph.DefFigure, Figure: "fig1b"},
		Mode:  core.ModeKnownF,
		F:     -1,
		Seed:  1,
	}
	secureKey := p.CompileKey()
	if strings.Contains(secureKey, "insecure") {
		t.Fatalf("secure compile key mentions the insecure flag: %s", secureKey)
	}
	p.Insecure = true
	insecureKey := p.CompileKey()
	if insecureKey == secureKey {
		t.Fatal("insecure and secure params share a compile key")
	}
	if !strings.HasPrefix(insecureKey, secureKey) {
		t.Fatalf("insecure key is not the secure key plus a suffix:\n  secure   %s\n  insecure %s", secureKey, insecureKey)
	}
}

// TestInsecureRunDecides pins the execution half: a compiled insecure
// scenario runs the full protocol stack on the insecure suite and reaches
// the same verdict as the secure run.
func TestInsecureRunDecides(t *testing.T) {
	p := Params{
		Graph: graph.Def{Kind: graph.DefFigure, Figure: "fig1b"},
		Mode:  core.ModeKnownF,
		F:     -1,
		Seed:  1,
	}
	secure, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	p.Insecure = true
	c, err := p.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if !c.Insecure {
		t.Fatal("Compile dropped the Insecure flag")
	}
	insecure, err := c.Run(1, false)
	if err != nil {
		t.Fatal(err)
	}
	if insecure.Verdict() != secure.Verdict() {
		t.Fatalf("insecure verdict %s, secure %s", insecure.Verdict(), secure.Verdict())
	}
	if !insecure.Termination || !insecure.Agreement {
		t.Fatalf("insecure run did not decide cleanly: %+v", insecure)
	}
}
