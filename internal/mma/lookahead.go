// Package mma implements the Memory Management Algorithm subsystem of
// §3 and §5.2: the lookahead shift register, per-queue occupancy
// counters, the Earliest Critical Queue First (ECQF) head MMA, a
// no-lookahead Most Deficit Queue First (MDQF) baseline, and the tail
// MMA.
//
// The MMA operates on *physical* queue identifiers: the renaming layer
// of §6 translates logical names before requests enter the lookahead,
// and "all previous results remain the same" (§6) with physical queues
// substituted.
//
// # Selection indices
//
// Every selector's Select answers the paper's rule from incrementally
// maintained hierarchical-bitmap indices (internal/bitset), so the
// per-decision cost is O(log₆₄ n) in the queue count and lookahead
// length instead of O(Q) / O(L). The direct transcription of each rule
// as a linear scan lives in scan_test.go (SelectScan, test-only); the
// two are bit-identical — same queue, same tie-breaks — which the
// seeded differential tests in differential_test.go pin down.
//
// Index invariants (checked implicitly by the differential suite):
//
//   - ECQF: for every physical queue q, win[q] lists the ring slots of
//     q's requests currently in the window, oldest first, linked
//     through next[]; win[q].critSlot is the slot of q's
//     (max(occ[q],0)+1)-th oldest request, or -1 if q has no more than
//     max(occ[q],0) requests pending; the crit bitmap holds exactly the
//     non-negative critical slots. Every mutation (shift in/out with
//     the exit's ledger debit, replenish credit) touches one queue and
//     restores the invariant for it in O(b + log₆₄ L).
//   - TailMMA / MDQF: the bucketed max-tracker places each queue whose
//     tracked value (tail occupancy, head deficit) is at least the
//     candidacy threshold (b for the tail, 1 for MDQF) in the bucket
//     of that exact value, clamping values ≥ overflowAt into
//     one overflow bucket that is resolved by an exact scan of its
//     members; the nonEmpty bitmap holds exactly the non-empty bucket
//     indices.
package mma

import (
	"fmt"

	"repro/internal/cell"
)

// Lookahead is the request shift register of Figure 3/Figure 5. One
// entry enters at the tail and one leaves at the head every slot —
// idle slots carry cell.NoPhysQueue. Its length fixes how far into the
// future the MMA can see.
//
// A request for a physical queue is its non-negative name. The owner
// may also carry requests that no head-SRAM queue serves (the core's
// tail-SRAM bypass) as tags below NoPhysQueue, so that it keeps one
// pipeline ring instead of a parallel one; the MMA treats every
// negative entry as idle.
type Lookahead struct {
	ring  []cell.PhysQueueID
	head  int
	count int // number of physical-queue (non-negative) entries
	// onShift, when set, observes every Shift *after* the register
	// moved: slot is the ring index the incoming entry was written to
	// (the same index the outgoing entry occupied). ECQF registers
	// itself here to maintain its critical-slot index and to take the
	// exiting request's ledger debit.
	onShift func(slot int, in, out cell.PhysQueueID)
}

// NewLookahead returns a lookahead register with size slots, all idle.
// Size must be positive (a zero-lookahead MMA simply never consults
// it; modeling it as size 1 keeps the shift pipeline uniform).
func NewLookahead(size int) (*Lookahead, error) {
	if size <= 0 {
		return nil, fmt.Errorf("mma: lookahead size must be positive, got %d", size)
	}
	ring := make([]cell.PhysQueueID, size)
	for i := range ring {
		ring[i] = cell.NoPhysQueue
	}
	return &Lookahead{ring: ring}, nil
}

// Size returns the register length in slots.
func (l *Lookahead) Size() int { return len(l.ring) }

// Pending returns the number of physical-queue requests currently
// held (tags are not counted).
func (l *Lookahead) Pending() int { return l.count }

// Shift advances the register by one slot: in enters at the tail and
// the head entry is returned. This is the only mutation — the register
// models hardware, so it moves exactly once per slot.
//
//pktbuf:hotpath
func (l *Lookahead) Shift(in cell.PhysQueueID) (out cell.PhysQueueID) {
	slot := l.head
	out = l.ring[slot]
	l.ring[slot] = in
	l.head = slot + 1
	if l.head == len(l.ring) {
		l.head = 0
	}
	if out >= 0 {
		l.count--
	}
	if in >= 0 {
		l.count++
	}
	if l.onShift != nil {
		l.onShift(slot, in, out)
	}
	return out
}

// FastForward rotates the register head by n idle shifts in O(1). The
// caller must only invoke it on an all-idle register (no request and
// no tag):
// rotating an all-idle ring is then exactly equivalent to n
// Shift(NoPhysQueue) calls — every entry read out would be idle, and
// the shift observer sees nothing on idle-in/idle-out shifts.
func (l *Lookahead) FastForward(n uint64) {
	l.head = cell.AdvanceCursor(l.head, n, len(l.ring))
}

// Head returns the ring index the next Shift writes to (and reads the
// exiting entry from). Owners that keep per-slot state beside the
// register index it by this slot.
func (l *Lookahead) Head() int { return l.head }

// Entry returns the entry at ring index slot (not a distance from the
// head). slot must be in [0, Size()).
func (l *Lookahead) Entry(slot int) cell.PhysQueueID { return l.ring[slot] }

// Tag writes an owner tag (a value below cell.NoPhysQueue) into ring
// index slot, which must be idle: the restore-time seam for owners
// whose snapshots frame their tags apart from the register.
func (l *Lookahead) Tag(slot int, tag cell.PhysQueueID) { l.ring[slot] = tag }

// At returns the entry i positions from the head (i=0 is the next
// request to be served). i must be in [0, Size()).
func (l *Lookahead) At(i int) cell.PhysQueueID {
	j := l.head + i
	if j >= len(l.ring) {
		j -= len(l.ring)
	}
	return l.ring[j]
}

// Scan calls fn for each entry from head to tail, stopping early if fn
// returns false. Idle entries and tags are included (fn sees a
// negative entry) so callers observe true slot distances. The ring
// walk is split into two linear segments so the inner loop carries no
// modulo.
func (l *Lookahead) Scan(fn func(i int, q cell.PhysQueueID) bool) {
	n := len(l.ring)
	for j := l.head; j < n; j++ {
		if !fn(j-l.head, l.ring[j]) {
			return
		}
	}
	base := n - l.head
	for j := 0; j < l.head; j++ {
		if !fn(base+j, l.ring[j]) {
			return
		}
	}
}
