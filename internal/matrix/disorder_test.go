package matrix

import (
	"bytes"
	"fmt"
	"regexp"
	"sync/atomic"
	"testing"

	"github.com/bftcup/bftcup/internal/core"
	"github.com/bftcup/bftcup/internal/graph"
	"github.com/bftcup/bftcup/internal/scenario"
)

// skewedCells builds a sweep whose cell costs are as uneven as they get:
// position 0 is a deliberately slow cell (a 21-node permissioned committee,
// cold-compiled), and behind it sit n−1 near-instant single-node cells.
func skewedCells(n int) CellList {
	slowHead := scenario.Params{
		Graph: graph.Def{Kind: graph.DefComplete, N: 21},
		Mode:  core.ModePermissioned,
		F:     -1,
		Net:   scenario.NetParams{Kind: scenario.NetSync},
		Seed:  1,
	}
	fastTail := scenario.Params{
		Graph: graph.Def{Kind: graph.DefComplete, N: 1},
		Mode:  core.ModePermissioned,
		F:     0,
		Net:   scenario.NetParams{Kind: scenario.NetSync},
	}
	cells := CellList{{Index: 0, Params: slowHead}}
	for i := 1; i < n; i++ {
		p := fastTail
		p.Seed = int64(i)
		cells = append(cells, Cell{Index: i, Params: p})
	}
	return cells
}

// claimWatch wraps a source and records, for every cell the pool claims,
// how far ahead of the next position to sink the claim ran.
type claimWatch struct {
	CellList
	sunk     *atomic.Int64 // the next position the sink waits for
	maxAhead *atomic.Int64
}

// Cell implements CellSource.
func (w claimWatch) Cell(i int) Cell {
	ahead := int64(i) - w.sunk.Load()
	for cur := w.maxAhead.Load(); ahead > cur && !w.maxAhead.CompareAndSwap(cur, ahead); cur = w.maxAhead.Load() {
	}
	return w.CellList.Cell(i)
}

// TestRunPoolClaimWindowBoundsDisorder pins runPool's order and its sliding
// claim window on the skewed sweep. Racing workers finish hundreds of instant
// cells while the slow head runs; the sink must still see positions 0…n−1 in
// order, and no cell may be claimed a full window or more ahead of the next
// position to sink — the window is all the pool parks, whatever the cell
// costs.
func TestRunPoolClaimWindowBoundsDisorder(t *testing.T) {
	const par = 4
	window := par * claimWindowPerWorker
	cells := skewedCells(600)
	w := claimWatch{CellList: cells, sunk: &atomic.Int64{}, maxAhead: &atomic.Int64{}}
	if _, err := runPool(w, Options{Parallelism: par}, func(pos int, o Outcome) error {
		if o.Err != "" {
			return fmt.Errorf("cell %d errored: %s", pos, o.Err)
		}
		if want := int(w.sunk.Load()); pos != want || o.Index != want {
			return fmt.Errorf("sink got position %d (cell %d), want %d", pos, o.Index, want)
		}
		w.sunk.Add(1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got := int(w.sunk.Load()); got != len(cells) {
		t.Fatalf("sink saw %d outcomes, want %d", got, len(cells))
	}
	t.Logf("furthest claim ahead of the next position to sink: %d (window %d, parallelism %d)", w.maxAhead.Load(), window, par)
	if ahead := int(w.maxAhead.Load()); ahead >= window {
		t.Fatalf("a cell was claimed %d positions ahead of the next to sink; the window is %d", ahead, window)
	}
}

// wallNS matches the one nondeterministic field of a stream's records.
var wallNS = regexp.MustCompile(`"wall_ns":[0-9]+`)

// TestStreamIndependentOfParallelism streams a shard of the skewed sweep
// serially and on four workers: once the wall-clock fields are stripped, the
// two streams are byte-identical, so a shard's stream is a function of the
// shard alone.
func TestStreamIndependentOfParallelism(t *testing.T) {
	cells := skewedCells(200)
	sh := Shard{Index: 1, Count: 2}
	part := slice(t, cells, sh)
	stream := func(par int) []byte {
		var buf bytes.Buffer
		if _, err := RunStream(part, Options{Parallelism: par}, &buf, StreamHeader{
			Name: "skewed", TotalCells: len(cells), Shard: sh.String(),
		}); err != nil {
			t.Fatal(err)
		}
		return wallNS.ReplaceAll(buf.Bytes(), nil)
	}
	serial, parallel := stream(1), stream(4)
	if !bytes.Equal(serial, parallel) {
		t.Fatalf("shard %s streams differently at -parallel 1 and 4:\n%s", sh, diffHint(serial, parallel))
	}
}
