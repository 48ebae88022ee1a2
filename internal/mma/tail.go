package mma

import (
	"fmt"

	"repro/internal/arena"
	"repro/internal/cell"
)

// TailMMA is the ingress-side MMA of §3: every b slots it may order a
// transfer of b cells from the tail SRAM to DRAM, choosing "any queue
// with an occupancy counter higher than or equal to b". With that rule
// the tail SRAM never needs more than Q(b−1)+1 cells.
//
// This implementation picks the queue with the highest occupancy
// (largest backlog first), which satisfies the rule and minimizes the
// occupancy high-water mark; ties break toward the lowest queue id for
// determinism. The occupancy ledger is a dense slice indexed by the
// logical queue ordinal, and Select resolves the maximum from a
// bucketed occupancy index maintained by the arrival/transfer/bypass
// events instead of scanning all Q counters (the linear scan is kept
// as the differential-test reference in scan_test.go).
type TailMMA struct {
	b   int
	occ []int32
	idx *maxTracker
}

// NewTailMMA builds a tail MMA with granularity b for queues logical
// queues. Queues beyond the initial size are accommodated by growing
// the ledger (amortized, off the steady-state path).
func NewTailMMA(b, queues int) (*TailMMA, error) {
	if b <= 0 {
		return nil, fmt.Errorf("mma: granularity must be positive, got %d", b)
	}
	if queues < 0 {
		return nil, fmt.Errorf("mma: queues must be non-negative, got %d", queues)
	}
	return &TailMMA{b: b, occ: make([]int32, queues), idx: newMaxTracker(queues, b)}, nil
}

func (t *TailMMA) ensure(q cell.QueueID) {
	if int(q) >= len(t.occ) {
		t.occ = arena.Grown(t.occ, int(q)+1)
	}
}

// adjust applies a ledger delta and mirrors it into the index.
func (t *TailMMA) adjust(q cell.QueueID, delta int32) {
	t.ensure(q)
	old := t.occ[q]
	t.occ[q] = old + delta
	t.idx.update(int(q), old, old+delta)
}

// OnArrival records one cell arriving into the tail SRAM for queue q.
func (t *TailMMA) OnArrival(q cell.QueueID) { t.adjust(q, 1) }

// OnTransfer debits one block handed to the DRAM side.
func (t *TailMMA) OnTransfer(q cell.QueueID) { t.adjust(q, -int32(t.b)) }

// OnBypass records one cell leaving the tail SRAM directly to the
// egress (the cut-through path for queues with no DRAM backlog).
func (t *TailMMA) OnBypass(q cell.QueueID) { t.adjust(q, -1) }

// Occupancy returns the tail-SRAM ledger for q.
func (t *TailMMA) Occupancy(q cell.QueueID) int {
	if q < 0 || int(q) >= len(t.occ) {
		return 0
	}
	return int(t.occ[q])
}

// Select returns the queue to write back, or ok=false if no queue has
// accumulated a full block. eligible lets the caller veto queues whose
// DRAM group cannot accept a write right now (the renaming layer then
// redirects them); nil means no queue is vetoed — callers whose write
// path can never stall (unbounded DRAM without renaming) pass nil and
// the walk degenerates to pure bitmap probes.
//
//pktbuf:hotpath
func (t *TailMMA) Select(eligible func(cell.QueueID) bool) (cell.QueueID, bool) {
	tr := t.idx
	for bi := tr.nonEmpty.Last(); bi >= 0; bi = tr.nonEmpty.PrevFrom(bi - 1) {
		set := tr.buckets[bi]
		if bi == tr.overflowAt {
			// Overflow bucket: occupancies ≥ overflowAt ≥ b with mixed
			// magnitudes; resolve exactly from the ledger. Any member
			// beats every exact bucket below.
			best, bestOcc, found := cell.NoQueue, int32(0), false
			for i := set.First(); i >= 0; i = set.NextFrom(i + 1) {
				if found && t.occ[i] <= bestOcc {
					continue
				}
				q := cell.QueueID(i)
				if eligible != nil && !eligible(q) {
					continue
				}
				best, bestOcc, found = q, t.occ[i], true
			}
			if found {
				return best, true
			}
			continue
		}
		// Exact buckets hold occupancy == bi ≥ b: the index keeps no
		// bucket below the block size.
		for i := set.First(); i >= 0; i = set.NextFrom(i + 1) {
			q := cell.QueueID(i)
			if eligible == nil || eligible(q) {
				return q, true
			}
		}
	}
	return cell.NoQueue, false
}
