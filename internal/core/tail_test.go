package core

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/cell"
	"repro/internal/dram"
)

// TestTailChainMatchesDeque drives one tail queue's slab-block chain
// with random arrivals, bypass promises and pops, and stagings, and
// holds it to a plain slice deque: same cells in the same order, the
// staged block holding the b oldest unpromised cells, the promised
// prefix intact, no block held by an empty queue, and no block leaked.
func TestTailChainMatchesDeque(t *testing.T) {
	for _, b := range []int{1, 2, 3, 4, 8} {
		rng := rand.New(rand.NewSource(int64(b)))
		slab := dram.NewSlab(b)
		delay := make([]uint64, b)
		var tq tailQueue
		var model []cell.Cell
		seq := uint64(0)
		maxLen := 0
		for step := 0; step < 20000; step++ {
			switch op := rng.Intn(10); {
			case op < 4:
				c := cell.Cell{Queue: 1, Seq: seq}
				seq++
				tq.push(slab, c.Queue, c.Seq)
				model = append(model, c)
			case op < 6:
				if int(tq.promised) < len(model) {
					tq.promised++
				}
			case op < 8:
				if tq.promised > 0 {
					c := tq.popFront(slab)
					tq.promised--
					if c != model[0] {
						t.Fatalf("b=%d step %d: bypass pop %v, want %v", b, step, c, model[0])
					}
					model = model[1:]
				}
			default:
				p := int(tq.promised)
				if len(model)-p < b {
					continue
				}
				blk := tq.stage(slab, delay)
				want := slices.Clone(model[p : p+b])
				got := make([]cell.Cell, b)
				for k := range got {
					got[k] = slab.Cell(blk, k)
				}
				if !slices.Equal(got, want) {
					t.Fatalf("b=%d step %d: staged %v, want %v", b, step, got, want)
				}
				model = append(model[:p:p], model[p+b:]...)
				slab.ReleaseBlock(blk)
			}
			maxLen = max(maxLen, len(model))
			var got []cell.Cell
			tq.cells(slab, func(c cell.Cell) { got = append(got, c) })
			if !slices.Equal(got, model) || tq.len() != len(model) {
				t.Fatalf("b=%d step %d: chain %v, want %v", b, step, got, model)
			}
			if len(model) == 0 && tq.first != dram.NoBlock {
				t.Fatalf("b=%d step %d: empty queue still holds block %d", b, step, tq.first)
			}
		}
		// A chain of n cells spans at most n/b+2 blocks and staging
		// holds one more, so a slab that never leaks has handed out
		// fewer than bound handles: once the queue drains, bound
		// acquisitions see no handle beyond bound.
		for tq.len() > 0 {
			tq.promised = int32(tq.len())
			tq.popFront(slab)
		}
		bound := maxLen/b + 4
		for range bound {
			if blk := slab.AcquireBlock(); int(blk) > bound {
				t.Fatalf("b=%d: handle %d after at most %d cells: blocks leaked", b, blk, maxLen)
			}
		}
	}
}
