package scenario

import (
	"testing"

	"github.com/bftcup/bftcup/internal/core"
	"github.com/bftcup/bftcup/internal/cryptox"
	"github.com/bftcup/bftcup/internal/graph"
	"github.com/bftcup/bftcup/internal/model"
	"github.com/bftcup/bftcup/internal/sim"
)

// flushSeed numbers the throw-away keyrings of the test below.
var flushSeed int64

// TestFaultFreeCellsRunNoCurveOps is the end-to-end reading of signature
// seeding: one fault-free cell of every StandardSweep graph family, under
// sync and partial synchrony, seeds 1–3, starts from a keyring nothing has
// touched and ends without one Ed25519 verification — every signature a
// process checked was made by the cell's own keyring and answered by its
// seed. The number of questions is pinned to what the commit before seeding
// asked (counted there with the same counters and no seeding; it paid 348
// curve operations for these 36 cells): the saving is in how the questions
// are answered, not in how many are put. CI prints the
// last log line in its job summary.
func TestFaultFreeCellsRunNoCurveOps(t *testing.T) {
	// Other tests of this package run the same (seed, ids) cells, and the
	// keyring cache is process-wide (two generations of 128): push everything
	// out, so that every registry below is new when first met (families with
	// equal ID sets share one per seed). The zero-stats check in the loop
	// fails loudly should the cache ever outgrow this flush.
	for i := 0; i <= 2*128; i++ {
		// Rings the cache has never seen (also under -count=2): a look-up
		// that hits evicts nothing.
		flushSeed--
		if _, _, err := cryptox.Keyring(flushSeed, []model.ID{1}); err != nil {
			t.Fatal(err)
		}
	}
	nets := []NetParams{{Kind: NetSync}, {Kind: NetPartial, GST: 2 * sim.Second}}
	families := []struct {
		def  string
		mode core.Mode
		// asked[net][seed-1], pinned at the parent commit.
		asked [2][3]uint64
	}{
		{"fig1b", core.ModeKnownF, [2][3]uint64{{59, 59, 59}, {59, 59, 59}}},
		{"kosr:sink=5,nonsink=3,k=2,extra=0.15", core.ModeKnownF, [2][3]uint64{{75, 74, 74}, {75, 74, 74}}},
		{"fig4a", core.ModeUnknownF, [2][3]uint64{{76, 76, 76}, {76, 76, 76}}},
		{"fig4b", core.ModeUnknownF, [2][3]uint64{{257, 257, 257}, {257, 257, 257}}},
		{"extended:core=5,noncore=3,extra=0.15", core.ModeUnknownF, [2][3]uint64{{74, 75, 74}, {74, 75, 74}}},
		{"complete:7", core.ModePermissioned, [2][3]uint64{{76, 76, 76}, {238, 238, 238}}},
	}
	var runner Runner
	met := make(map[*cryptox.Registry]bool)
	var cells, asked, curve uint64
	for _, fam := range families {
		def, err := graph.ParseDef(fam.def)
		if err != nil {
			t.Fatal(err)
		}
		for seed := int64(1); seed <= 3; seed++ {
			for ni, net := range nets {
				c, err := Params{Graph: def, Mode: fam.mode, F: -1, Net: net, Seed: seed}.Compile()
				if err != nil {
					t.Fatal(err)
				}
				_, reg, err := cryptox.Keyring(seed+1, c.ids)
				if err != nil {
					t.Fatal(err)
				}
				before := reg.Stats()
				if !met[reg] && before != (cryptox.VerifyStats{}) {
					t.Fatalf("%s seed %d: keyring not new after the flush: %+v", fam.def, seed, before)
				}
				met[reg] = true
				res, err := runner.Run(c, seed, false)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Consensus() {
					t.Fatalf("%s %s seed %d: no consensus", fam.def, net.Label(), seed)
				}
				after := reg.Stats()
				if got := after.CurveOps - before.CurveOps; got != 0 {
					t.Errorf("%s %s seed %d: %d curve verifications in a fault-free cell, want 0 (%+v)",
						fam.def, net.Label(), seed, got, after)
				}
				if got := after.Asked - before.Asked; got != fam.asked[ni][seed-1] {
					t.Errorf("%s %s seed %d: %d verifications asked, parent commit asks %d",
						fam.def, net.Label(), seed, got, fam.asked[ni][seed-1])
				}
				cells++
				asked += after.Asked - before.Asked
				curve += after.CurveOps - before.CurveOps
			}
		}
	}
	t.Logf("curve verifications per fault-free standard cell: %.3g (asked: %.1f)",
		float64(curve)/float64(cells), float64(asked)/float64(cells))
}
