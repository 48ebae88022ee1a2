package mma

import (
	"testing"
	"testing/quick"

	"repro/internal/cell"
)

func TestNewLookaheadValidation(t *testing.T) {
	if _, err := NewLookahead(0); err == nil {
		t.Error("size 0 accepted")
	}
	if _, err := NewLookahead(-3); err == nil {
		t.Error("negative size accepted")
	}
	l, err := NewLookahead(4)
	if err != nil || l.Size() != 4 {
		t.Fatalf("NewLookahead(4) = %v, %v", l, err)
	}
}

func TestLookaheadShiftPipeline(t *testing.T) {
	l, _ := NewLookahead(3)
	// Initially idle: first three shifts return NoPhysQueue.
	in := []cell.PhysQueueID{10, 11, 12, 13, cell.NoPhysQueue, 14}
	want := []cell.PhysQueueID{
		cell.NoPhysQueue, cell.NoPhysQueue, cell.NoPhysQueue, 10, 11, 12,
	}
	for i, q := range in {
		if got := l.Shift(q); got != want[i] {
			t.Errorf("shift %d: out = %d, want %d", i, got, want[i])
		}
	}
	// Remaining contents head-to-tail: 13, NoPhysQueue, 14.
	if l.At(0) != 13 || l.At(1) != cell.NoPhysQueue || l.At(2) != 14 {
		t.Errorf("contents = %d,%d,%d", l.At(0), l.At(1), l.At(2))
	}
	if got := l.Pending(); got != 2 {
		t.Errorf("Pending = %d, want 2", got)
	}
}

func TestLookaheadScanOrderAndEarlyStop(t *testing.T) {
	l, _ := NewLookahead(4)
	for _, q := range []cell.PhysQueueID{1, 2, 3, 4} {
		l.Shift(q)
	}
	var seen []cell.PhysQueueID
	l.Scan(func(i int, q cell.PhysQueueID) bool {
		seen = append(seen, q)
		return len(seen) < 3
	})
	if len(seen) != 3 || seen[0] != 1 || seen[1] != 2 || seen[2] != 3 {
		t.Errorf("scan saw %v", seen)
	}
}

func TestLookaheadPendingProperty(t *testing.T) {
	// Property: Pending always equals the count of non-idle entries.
	f := func(ops []uint8) bool {
		l, _ := NewLookahead(8)
		for _, op := range ops {
			if op%3 == 0 {
				l.Shift(cell.NoPhysQueue)
			} else {
				l.Shift(cell.PhysQueueID(op % 5))
			}
			n := 0
			l.Scan(func(_ int, q cell.PhysQueueID) bool {
				if q != cell.NoPhysQueue {
					n++
				}
				return true
			})
			if n != l.Pending() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func allEligible(cell.PhysQueueID) bool { return true }

func TestECQFPaperExample(t *testing.T) {
	// §3's worked example: Q=4, b=3, L=6; lookahead (head to tail)
	// = 3,3,1,1,1,6 wait — Figure 3 shows lookahead "3 3 1 1 1 6" read
	// with occupancies Q1=2, Q2=2, Q3=2, Q4=... The text: with
	// occupancy counters and lookahead as shown, the MMA should select
	// queue 1: scanning, queue 3 loses 2 (occ 2->0), queue 1 loses 3
	// (occ 2 -> -1) => queue 1 critical first.
	look, _ := NewLookahead(6)
	e, err := NewECQF(look, 3, 16)
	if err != nil {
		t.Fatal(err)
	}
	// Occupancies from Figure 3: Q1=2, Q2=2, Q3=2, Q4=0 (absent).
	e.setOcc(1, 2)
	e.setOcc(2, 2)
	e.setOcc(3, 2)
	// Lookahead contents head->tail: 3,3,1,1,1,6. Entry order into the
	// shift register is the same (oldest first).
	for _, q := range []cell.PhysQueueID{3, 3, 1, 1, 1, 6} {
		look.Shift(q)
	}
	q, ok := e.Select(allEligible)
	if !ok || q != 1 {
		t.Errorf("Select = %d, %v; want queue 1 (paper example)", q, ok)
	}
}

func TestECQFCountsAndCriticality(t *testing.T) {
	look, _ := NewLookahead(4)
	e, _ := NewECQF(look, 2, 16)
	// No requests: nothing critical.
	if _, ok := e.Select(allEligible); ok {
		t.Error("empty lookahead selected a queue")
	}
	// Queue 7 has 0 occupancy and one pending request: critical.
	look.Shift(7)
	q, ok := e.Select(allEligible)
	if !ok || q != 7 {
		t.Errorf("Select = %d, %v; want 7", q, ok)
	}
	// After replenishing (occ 0+2=2), one request is covered.
	e.OnReplenish(7)
	if _, ok := e.Select(allEligible); ok {
		t.Error("covered queue still critical")
	}
	// Two more requests make it critical again (3 pending > 2 occ).
	look.Shift(7)
	look.Shift(7)
	if q, ok := e.Select(allEligible); !ok || q != 7 {
		t.Errorf("Select = %d, %v; want 7 again", q, ok)
	}
}

func TestECQFSkipsIneligibleCritical(t *testing.T) {
	look, _ := NewLookahead(4)
	e, _ := NewECQF(look, 2, 16)
	look.Shift(1)
	look.Shift(2)
	// Queue 1 critical first but ineligible; queue 2 must be chosen.
	notOne := func(q cell.PhysQueueID) bool { return q != 1 }
	q, ok := e.Select(notOne)
	if !ok || q != 2 {
		t.Errorf("Select = %d, %v; want 2", q, ok)
	}
}

func TestECQFIdlesWithoutCriticality(t *testing.T) {
	look, _ := NewLookahead(4)
	e, _ := NewECQF(look, 4, 16)
	// One pending request, occupancy 2: not critical (2-1 >= 0), so
	// the MMA must idle rather than inflate the SRAM.
	e.OnReplenish(5) // occ 4
	look.Shift(5)
	look.Shift(5)
	look.Shift(cell.NoPhysQueue)
	look.Shift(cell.NoPhysQueue)
	look.Shift(cell.NoPhysQueue)
	look.Shift(cell.NoPhysQueue) // both requests left: occ 2
	look.Shift(5)
	if q, ok := e.Select(allEligible); ok {
		t.Errorf("Select = %d without criticality", q)
	}
}

func TestECQFLedger(t *testing.T) {
	look, _ := NewLookahead(2)
	e, _ := NewECQF(look, 3, 16)
	e.OnReplenish(9)
	e.OnReplenish(9)
	// The debit is taken when the request leaves the lookahead, at the
	// shift that pushes it out — not when it enters.
	look.Shift(9)
	look.Shift(cell.NoPhysQueue)
	if got := e.Occupancy(9); got != 6 {
		t.Errorf("Occupancy with the request in the window = %d, want 6", got)
	}
	if out := look.Shift(cell.NoPhysQueue); out != 9 {
		t.Fatalf("shift out = %d, want 9", out)
	}
	if got := e.Occupancy(9); got != 5 {
		t.Errorf("Occupancy = %d, want 5", got)
	}
	e.OnRequestEnter(9) // no-op for ECQF
	if got := e.Occupancy(9); got != 5 {
		t.Errorf("Occupancy after enter = %d, want 5", got)
	}
}

func TestNewECQFValidation(t *testing.T) {
	look, _ := NewLookahead(2)
	if _, err := NewECQF(nil, 2, 16); err == nil {
		t.Error("nil lookahead accepted")
	}
	if _, err := NewECQF(look, 0, 16); err == nil {
		t.Error("zero granularity accepted")
	}
}

func TestMDQFSelectsDeepestDeficit(t *testing.T) {
	m, err := NewMDQF(2, 16)
	if err != nil {
		t.Fatal(err)
	}
	m.OnRequestEnter(1) // occ -1
	m.OnRequestEnter(2)
	m.OnRequestEnter(2) // occ -2
	m.OnRequestEnter(3)
	m.OnReplenish(3) // occ +1: not in deficit, never selected
	q, ok := m.Select(allEligible)
	if !ok || q != 2 {
		t.Errorf("Select = %d, %v; want 2", q, ok)
	}
	// Eligibility veto falls through to the next deepest.
	q, ok = m.Select(func(q cell.PhysQueueID) bool { return q != 2 })
	if !ok || q != 1 {
		t.Errorf("Select = %d, %v; want 1", q, ok)
	}
	// Tie break toward lower id.
	m2, _ := NewMDQF(2, 16)
	m2.OnRequestEnter(8)
	m2.OnRequestEnter(4)
	if q, ok := m2.Select(allEligible); !ok || q != 4 {
		t.Errorf("tie Select = %d, %v; want 4", q, ok)
	}
}

func TestNewMDQFValidation(t *testing.T) {
	if _, err := NewMDQF(0, 16); err == nil {
		t.Error("zero granularity accepted")
	}
}

func TestTailMMA(t *testing.T) {
	tm, err := NewTailMMA(3, 16)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewTailMMA(0, 16); err == nil {
		t.Error("zero granularity accepted")
	}
	// No queue has b cells yet.
	tm.OnArrival(1)
	tm.OnArrival(1)
	if _, ok := tm.Select(func(cell.QueueID) bool { return true }); ok {
		t.Error("selected with <b cells")
	}
	tm.OnArrival(1)
	tm.OnArrival(2)
	tm.OnArrival(2)
	tm.OnArrival(2)
	tm.OnArrival(2)
	// Queue 2 has 4 >= queue 1's 3: largest first.
	q, ok := tm.Select(func(cell.QueueID) bool { return true })
	if !ok || q != 2 {
		t.Errorf("Select = %d, %v; want 2", q, ok)
	}
	tm.OnTransfer(2)
	if got := tm.Occupancy(2); got != 1 {
		t.Errorf("Occupancy(2) = %d, want 1", got)
	}
	// Now queue 1 is the only full queue.
	q, ok = tm.Select(func(cell.QueueID) bool { return true })
	if !ok || q != 1 {
		t.Errorf("Select = %d, %v; want 1", q, ok)
	}
	// Veto it: nothing to do.
	if _, ok := tm.Select(func(q cell.QueueID) bool { return q != 1 }); ok {
		t.Error("vetoed queue selected")
	}
	// Bypass drains the ledger.
	tm.OnBypass(1)
	if got := tm.Occupancy(1); got != 2 {
		t.Errorf("Occupancy(1) = %d, want 2", got)
	}
}

// TestECQFZeroMissSingleQueueTheory reproduces the §3 intuition on a
// minimal closed loop: Q queues drained round-robin, replenishments
// every b slots with an SRAM ledger of Q(b-1) plus lookahead
// Q(b-1)+1 — no queue's ledger may fall below zero at service time.
func TestECQFZeroMissSingleQueueTheory(t *testing.T) {
	const Q, b = 4, 3
	lookSize := Q*(b-1) + 1
	look, _ := NewLookahead(lookSize)
	e, _ := NewECQF(look, b, 64)
	// Start with every queue's SRAM primed at b-1 cells (steady state).
	for q := cell.PhysQueueID(0); q < Q; q++ {
		e.setOcc(q, b-1)
	}
	// Round-robin adversary for many slots; every b-th slot the MMA
	// replenishes.
	next := 0
	for slot := 0; slot < 10000; slot++ {
		q := cell.PhysQueueID(next)
		next = (next + 1) % Q
		out := look.Shift(q) // takes out's ledger debit
		if out != cell.NoPhysQueue {
			if e.Occupancy(out) < 0 {
				t.Fatalf("slot %d: queue %d ledger went negative (miss)", slot, out)
			}
		}
		if slot%b == b-1 {
			if sel, ok := e.Select(allEligible); ok {
				e.OnReplenish(sel)
			}
		}
	}
}
