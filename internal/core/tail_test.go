package core

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/cell"
	"repro/internal/dram"
)

// TestTailRunsMatchModel drives one tail queue — counters, its front
// promised run, and a list of later runs in slab blocks — with random
// arrivals, bypass promises and pops, and stagings, and holds it to a
// plain slice of sequence numbers: the same cells in the same order,
// each promise taking the oldest unpromised cell, the staged block
// holding the b oldest unpromised cells, one run per stretch of
// consecutive promised cells and a block only for each run after the
// front one (so none while nothing is promised), and no block leaked. The traffic must make at least two promised runs
// coexist.
func TestTailRunsMatchModel(t *testing.T) {
	const q = cell.QueueID(1)
	for _, b := range []int{1, 2, 3, 4, 8} {
		rng := rand.New(rand.NewSource(int64(b)))
		slab := dram.NewSlab(b)
		var tq tailQueue
		var model []uint64 // promised cells first, then unpromised
		promised := 0
		arrived := uint64(0)
		maxRuns, maxHandle := 0, dram.NoBlock
		for step := 0; step < 20000; step++ {
			switch op := rng.Intn(10); {
			case op < 4:
				tq.n++
				model = append(model, arrived)
				arrived++
			case op < 6:
				if promised < len(model) {
					seq := tq.oldest(arrived)
					if seq != model[promised] {
						t.Fatalf("b=%d step %d: oldest unpromised %d, want %d", b, step, seq, model[promised])
					}
					tq.promise(slab, seq)
					promised++
					maxHandle = max(maxHandle, tq.last)
				}
			case op < 8:
				if promised > 0 {
					if c := tq.popFront(slab, q); c != (cell.Cell{Queue: q, Seq: model[0]}) {
						t.Fatalf("b=%d step %d: bypass pop %v, want seq %d", b, step, c, model[0])
					}
					model = model[1:]
					promised--
				}
			default:
				if len(model)-promised < b {
					continue
				}
				blk := tq.stage(slab, q, arrived)
				maxHandle = max(maxHandle, blk)
				for k := range b {
					if c := slab.Cell(blk, k); c != (cell.Cell{Queue: q, Seq: model[promised+k]}) {
						t.Fatalf("b=%d step %d: staged cell %d = %v, want seq %d", b, step, k, c, model[promised+k])
					}
				}
				model = append(model[:promised:promised], model[promised+b:]...)
				slab.ReleaseBlock(blk)
			}
			var got []uint64
			tq.cells(slab, arrived, func(seq uint64) { got = append(got, seq) })
			if !slices.Equal(got, model) || tq.len() != len(model) || int(tq.promised) != promised {
				t.Fatalf("b=%d step %d: tail %v (%d promised), want %v (%d promised)", b, step, got, tq.promised, model, promised)
			}
			if (promised == 0) != (tq.headLeft == 0) || (promised == 0 && tq.last != dram.NoBlock) {
				t.Fatalf("b=%d step %d: %d promised, front run of %d, last block %d", b, step, promised, tq.headLeft, tq.last)
			}
			runs, blocks := 0, 0
			if tq.headLeft > 0 {
				runs++
			}
			for blk := tq.last; blk != dram.NoBlock; {
				runs++
				blocks++
				if blk = slab.Next(blk); blk == tq.last {
					break
				}
			}
			// Runs are maximal: one per stretch of consecutive promised
			// seqs, and a block for each after the front one.
			stretches := 0
			for k := range promised {
				if k == 0 || model[k] != model[k-1]+1 {
					stretches++
				}
			}
			if runs != stretches || blocks != max(runs-1, 0) {
				t.Fatalf("b=%d step %d: %d promised runs in %d blocks for %d stretches of consecutive seqs", b, step, runs, blocks, stretches)
			}
			maxRuns = max(maxRuns, runs)
		}
		if maxRuns < 2 {
			t.Errorf("b=%d: at most %d promised run at once, want the traffic to make two coexist", b, maxRuns)
		}
		// Drain: once nothing is held, every handle the slab ever gave
		// out is on its free list, so acquiring that many hands out no
		// new one.
		for tq.len() > 0 {
			for int(tq.promised) < tq.len() {
				tq.promise(slab, tq.oldest(arrived))
				maxHandle = max(maxHandle, tq.last)
			}
			tq.popFront(slab, q)
		}
		if tq.last != dram.NoBlock {
			t.Fatalf("b=%d: drained queue holds block %d", b, tq.last)
		}
		for range int(maxHandle) {
			if blk := slab.AcquireBlock(); blk > maxHandle {
				t.Fatalf("b=%d: handle %d beyond the %d ever held: blocks leaked", b, blk, maxHandle)
			}
		}
		t.Logf("b=%d: up to %d promised runs at once, %d blocks", b, maxRuns, maxHandle)
	}
}
