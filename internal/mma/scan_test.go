package mma

import (
	"repro/internal/arena"
	"repro/internal/cell"
)

// The SelectScan methods are the direct transcriptions of the paper's
// selection rules as linear scans. They are the references the
// differential suite (differential_test.go) holds the indexed Select
// implementations to, and live in a test file because nothing outside
// the tests calls them.

// scanScratch is the epoch-validated scratch array of ECQF.SelectScan:
// an entry is live only when stamp[q] == epoch, so each scan starts
// from logically-zero counters without touching O(queues) memory. One
// instance serves every ECQF under test (a new epoch invalidates
// whatever the previous scan left); the tests using it do not run in
// parallel.
var scanScratch struct {
	seen  []int32
	stamp []uint32
	epoch uint32
}

// SelectScan is the reference implementation of ECQF.Select: the §3
// linear scan over the lookahead. The scratch counters hold the number
// of pending lookahead requests seen so far per queue; queue q is
// critical at the request that makes occ[q] − seen[q] < 0.
func (e *ECQF) SelectScan(eligible func(cell.PhysQueueID) bool) (cell.PhysQueueID, bool) {
	s := &scanScratch
	s.seen = arena.Grown(s.seen, len(e.occ))
	s.stamp = arena.Grown(s.stamp, len(e.occ))
	s.epoch++
	if s.epoch == 0 {
		// uint32 wrap: stale stamps could alias the new epoch.
		clear(s.stamp)
		s.epoch = 1
	}
	chosen, found := cell.NoPhysQueue, false
	e.look.Scan(func(_ int, q cell.PhysQueueID) bool {
		if q < 0 {
			return true
		}
		if s.stamp[q] != s.epoch {
			s.stamp[q] = s.epoch
			s.seen[q] = 0
		}
		s.seen[q]++
		if e.occ[q]-s.seen[q] < 0 {
			if e.eligibleQ(q, eligible) {
				chosen, found = q, true
				return false
			}
			// Critical but not replenishable this cycle (e.g. its next
			// block's write is still in flight toward DRAM): keep
			// scanning for a later critical queue, and reset this
			// queue's scratch so criticality re-triggers only after b
			// more of its requests.
			s.seen[q] -= int32(e.b)
		}
		return true
	})
	return chosen, found
}

// SelectScan is the reference implementation of MDQF.Select: the
// linear scan over the dense physical name space.
func (m *MDQF) SelectScan(eligible func(cell.PhysQueueID) bool) (cell.PhysQueueID, bool) {
	best, bestOcc, found := cell.NoPhysQueue, int32(0), false
	for i := range m.occ {
		q := cell.PhysQueueID(i)
		if m.occ[i] >= 0 || (found && m.occ[i] >= bestOcc) || !m.eligibleQ(q, eligible) {
			continue
		}
		best, bestOcc, found = q, m.occ[i], true
	}
	return best, found
}

func (m *MDQF) eligibleQ(q cell.PhysQueueID, eligible func(cell.PhysQueueID) bool) bool {
	if m.elig != nil {
		return m.elig.Has(int(q))
	}
	return eligible == nil || eligible(q)
}

// SelectScan is the reference implementation of TailMMA.Select: the
// linear scan over the dense logical name space.
func (t *TailMMA) SelectScan(eligible func(cell.QueueID) bool) (cell.QueueID, bool) {
	best, bestOcc, found := cell.NoQueue, int32(0), false
	for i := range t.occ {
		n := t.occ[i]
		if n < int32(t.b) || (found && n <= bestOcc) {
			continue
		}
		q := cell.QueueID(i)
		if eligible != nil && !eligible(q) {
			continue
		}
		best, bestOcc, found = q, n, true
	}
	return best, found
}
