package mma

import (
	"fmt"

	"repro/internal/arena"
	"repro/internal/bitset"
	"repro/internal/cell"
)

// HeadMMA is the interface of the head (egress-side) Memory Management
// Algorithm: every b slots it may order one replenishment of b cells
// from DRAM to the head SRAM.
//
// Implementations keep the §5.2 occupancy counters: incremented by b
// when a replenish request is *issued* (not when it completes) and
// decremented once per request — ECQF when the request leaves the
// lookahead, observed at the lookahead shift; MDQF, which has no
// lookahead, when the request enters. The counters are therefore a
// forward-looking ledger, deliberately distinct from the physical SRAM
// occupancy.
type HeadMMA interface {
	// OnRequestEnter records a scheduler request entering the pipeline.
	OnRequestEnter(q cell.PhysQueueID)
	// Select picks the queue to replenish, or ok=false to stay idle.
	// eligible reports whether a queue can currently be replenished
	// from DRAM (it has a resident block and the write path allows it);
	// nil means every queue is eligible. When an eligibility bitset has
	// been installed with SetEligibility it takes precedence and the
	// closure is not consulted.
	Select(eligible func(cell.PhysQueueID) bool) (q cell.PhysQueueID, ok bool)
	// SetEligibility installs a dense per-physical-queue eligibility
	// bitset (the DRAM layer's "readable now" bits) consulted by Select
	// in place of the per-candidate closure. Pass nil to fall back to
	// the closure.
	SetEligibility(bits *bitset.Set)
	// OnReplenish credits the ledger with one block of b cells; the
	// caller invokes it when the replenish request is handed to the
	// DRAM side.
	OnReplenish(q cell.PhysQueueID)
	// Occupancy returns the ledger value for q (may be negative while
	// requests outpace replenishment).
	Occupancy(q cell.PhysQueueID) int
}

// ECQF is the Earliest Critical Queue First head MMA of §3: scan the
// lookahead from head to tail, decrementing a scratch copy of each
// queue's occupancy counter per request; the first queue whose scratch
// counter goes negative is "critical" and is selected. With lookahead
// L* = Q(b−1)+1 this minimizes SRAM to Q(b−1) cells.
//
// Select answers that question from an incrementally maintained index
// (the literal scan is kept as the differential-test reference in
// scan_test.go): queue q first goes critical at its
// (max(occ[q],0)+1)-th pending request, so the index keeps, per queue,
// the ring slot of exactly that request (critSlot) and a hierarchical
// bitmap over ring slots (crit) holding all of them. Selection is then
// a find-first-set from the window head — O(log₆₄ L) instead of
// re-walking the Q(b−1)+1 lookahead.
//
// A queue's requests in the window are a list linked through the
// lookahead slots (one next link per slot, plus per-queue first, last
// and count), so the index costs O(L + Q) words however the requests
// are spread. Every event moves a queue's critical request by at most
// b links: a request leaving the window takes the ledger debit (the
// critical request stays put, or the new first one becomes critical
// when the ledger was not positive), an entering request is critical
// iff it is the (max(occ,0)+1)-th, and a replenish walks b links on.
//
// All per-queue state is kept in dense slices indexed by the physical
// queue ordinal.
type ECQF struct {
	b    int
	look *Lookahead
	occ  []int32

	// win[q] is q's window list and critical slot; next[slot] links a
	// request to the same queue's next younger one (-1 at the last).
	// crit is the bitmap of all critical slots. elig, when non-nil, is
	// the DRAM-published readable-now bitset consulted per critical
	// candidate.
	win  []window
	next []int32
	crit *bitset.Set
	elig *bitset.Set
}

// window is one queue's requests in the lookahead: the slots of the
// oldest and youngest, their count, and the slot of the critical one
// (the (max(occ,0)+1)-th oldest; -1 if there are not that many).
type window struct {
	first, last, count, critSlot int32
}

var emptyWindow = window{first: -1, last: -1, critSlot: -1}

var _ HeadMMA = (*ECQF)(nil)

// NewECQF builds an ECQF over the given lookahead with granularity b
// for a physical name space of queues ordinals. Queues beyond the
// initial size are accommodated by growing the arenas (amortized, off
// the steady-state path). The ECQF registers itself as the lookahead's
// shift observer to keep its index current and take the ledger debit
// of each exiting request; at most one ECQF may drive a given
// lookahead.
func NewECQF(look *Lookahead, b, queues int) (*ECQF, error) {
	if look == nil {
		return nil, fmt.Errorf("mma: ECQF needs a lookahead register")
	}
	if b <= 0 {
		return nil, fmt.Errorf("mma: granularity must be positive, got %d", b)
	}
	if queues < 0 {
		return nil, fmt.Errorf("mma: queues must be non-negative, got %d", queues)
	}
	if look.onShift != nil {
		// A silently replaced observer would leave the first ECQF's
		// index stale — fail loudly instead.
		return nil, fmt.Errorf("mma: lookahead already has a shift observer (one ECQF per lookahead)")
	}
	e := &ECQF{
		b:    b,
		look: look,
		occ:  make([]int32, queues),
		win:  make([]window, queues),
		next: make([]int32, look.Size()),
		crit: bitset.New(look.Size()),
	}
	for i := range e.win {
		e.win[i] = emptyWindow
	}
	look.onShift = e.onShift
	return e, nil
}

func (e *ECQF) ensure(q cell.PhysQueueID) {
	if int(q) < len(e.occ) {
		return
	}
	n := int(q) + 1
	old := len(e.occ)
	e.occ = arena.Grown(e.occ, n)
	e.win = arena.Grown(e.win, n)
	for i := old; i < n; i++ {
		e.win[i] = emptyWindow
	}
}

// setCrit moves w's critical slot to slot (-1 for none).
func (e *ECQF) setCrit(w *window, slot int32) {
	if old := w.critSlot; old != slot {
		if old >= 0 {
			e.crit.Clear(int(old))
		}
		if slot >= 0 {
			e.crit.Set(int(slot))
		}
		w.critSlot = slot
	}
}

// onShift maintains the index at the lookahead shift: the exiting
// entry leaves its queue's list and takes the ledger debit, then the
// entering entry is appended at the same slot. When in == out the
// exit-then-enter order keeps the list consistent.
func (e *ECQF) onShift(slot int, in, out cell.PhysQueueID) {
	s := int32(slot)
	if out != cell.NoPhysQueue {
		e.ensure(out)
		w := &e.win[out]
		o := e.occ[out]
		e.occ[out] = o - 1
		w.count--
		if w.count == 0 {
			w.first, w.last = -1, -1
		} else {
			w.first = e.next[s]
		}
		// With o ≥ 1 the critical request was the (o+1)-th and is now
		// the o-th of a ledger of o−1: unchanged. Otherwise the exiting
		// request was the critical first one, and the new first is.
		if o <= 0 {
			e.setCrit(w, w.first)
		}
	}
	if in != cell.NoPhysQueue {
		e.ensure(in)
		w := &e.win[in]
		e.append(w, s)
		if w.count == max(e.occ[in], 0)+1 {
			e.setCrit(w, s)
		}
	}
}

// append links slot s at the young end of w's list.
func (e *ECQF) append(w *window, s int32) {
	e.next[s] = -1
	if w.count == 0 {
		w.first = s
	} else {
		e.next[w.last] = s
	}
	w.last = s
	w.count++
}

// recompute re-derives q's critical slot by walking its list: the
// cold path of restore and the test seam.
func (e *ECQF) recompute(q cell.PhysQueueID) {
	w := &e.win[q]
	slot := w.first
	for k := max(e.occ[q], 0); k > 0 && slot >= 0; k-- {
		slot = e.next[slot]
	}
	e.setCrit(w, slot)
}

// setOcc force-sets a ledger value (test seam for reconstructing the
// paper's worked examples mid-flight).
func (e *ECQF) setOcc(q cell.PhysQueueID, v int32) {
	e.ensure(q)
	e.occ[q] = v
	e.recompute(q)
}

// OnRequestEnter implements HeadMMA. ECQF's ledger moves on replenish
// and exit events only; entry is a no-op but part of the interface so
// deficit-based MMAs can observe it. (Window membership and the debit
// are tracked at the lookahead shift, which is when the request
// physically enters and leaves the register.)
func (e *ECQF) OnRequestEnter(cell.PhysQueueID) {}

// OnReplenish credits the ledger with one block of b cells; the caller
// invokes it when the replenish request is handed to the DRAM side.
// The critical request moves at most b links toward the window tail.
func (e *ECQF) OnReplenish(q cell.PhysQueueID) {
	e.ensure(q)
	o := e.occ[q]
	e.occ[q] = o + int32(e.b)
	w := &e.win[q]
	slot := w.critSlot
	for k := max(o+int32(e.b), 0) - max(o, 0); k > 0 && slot >= 0; k-- {
		slot = e.next[slot]
	}
	e.setCrit(w, slot)
}

// Occupancy implements HeadMMA.
func (e *ECQF) Occupancy(q cell.PhysQueueID) int {
	if q < 0 || int(q) >= len(e.occ) {
		return 0
	}
	return int(e.occ[q])
}

// SetEligibility implements HeadMMA.
func (e *ECQF) SetEligibility(bits *bitset.Set) { e.elig = bits }

func (e *ECQF) eligibleQ(q cell.PhysQueueID, eligible func(cell.PhysQueueID) bool) bool {
	if e.elig != nil {
		return e.elig.Has(int(q))
	}
	return eligible == nil || eligible(q)
}

// Select implements HeadMMA: the earliest critical queue, in lookahead
// order, resolved from the critical-slot index. The walk visits
// critical slots in head-to-tail order (two bitmap segments, since the
// window wraps the ring) and returns the first whose queue is
// eligible; an ineligible critical queue can never win — in the §3
// scan its scratch counter is pushed back by b so it only re-triggers,
// still ineligible, b requests later — so skipping it is exact. When
// no critical queue is eligible the MMA idles — replenishing uncritical
// queues would only inflate the SRAM occupancy beyond the dimensioned
// bound.
//
//pktbuf:hotpath
func (e *ECQF) Select(eligible func(cell.PhysQueueID) bool) (cell.PhysQueueID, bool) {
	if e.crit.Empty() {
		// No queue is critical: the common answer of the idle-run
		// Quiescent probe.
		return cell.NoPhysQueue, false
	}
	head := e.look.head
	n := len(e.look.ring)
	// Circular walk over the critical-slot bitmap from the window head:
	// one wrapped find-first-set per candidate, terminating when the
	// circular distance from head stops growing (the walk has lapped).
	slot := e.crit.NextFromWrap(head)
	for slot >= 0 {
		if q := e.look.ring[slot]; e.eligibleQ(q, eligible) {
			return q, true
		}
		next := e.crit.NextFromWrap(slot + 1)
		dNext, dSlot := next-head, slot-head
		if dNext < 0 {
			dNext += n
		}
		if dSlot < 0 {
			dSlot += n
		}
		if next < 0 || dNext <= dSlot {
			break
		}
		slot = next
	}
	return cell.NoPhysQueue, false
}

// MDQF is the Most Deficit Queue First baseline: it ignores the
// lookahead contents and selects the eligible queue with the lowest
// ledger occupancy (deepest deficit). The paper notes ([13]) that
// MMAs without lookahead pay with a larger SRAM — the ablation bench
// quantifies that.
//
// Select resolves the deepest deficit from a bucketed max-tracker over
// deficit values instead of scanning the physical name space; see the
// package documentation for the index invariants.
type MDQF struct {
	b    int
	occ  []int32
	idx  *maxTracker
	elig *bitset.Set
}

var _ HeadMMA = (*MDQF)(nil)

// NewMDQF builds an MDQF with granularity b for a physical name space
// of queues ordinals.
func NewMDQF(b, queues int) (*MDQF, error) {
	if b <= 0 {
		return nil, fmt.Errorf("mma: granularity must be positive, got %d", b)
	}
	if queues < 0 {
		return nil, fmt.Errorf("mma: queues must be non-negative, got %d", queues)
	}
	return &MDQF{b: b, occ: make([]int32, queues), idx: newMaxTracker(queues, 1)}, nil
}

func (m *MDQF) ensure(q cell.PhysQueueID) {
	if int(q) >= len(m.occ) {
		m.occ = arena.Grown(m.occ, int(q)+1)
	}
}

// deficit converts a ledger value to the tracker's key: only queues
// with occupancy below zero are candidates.
func deficit(occ int32) int32 {
	if occ >= 0 {
		return 0
	}
	return -occ
}

// OnRequestEnter implements HeadMMA: MDQF reacts at entry time (it has
// no lookahead window, so the request is "seen" immediately).
func (m *MDQF) OnRequestEnter(q cell.PhysQueueID) {
	m.ensure(q)
	old := m.occ[q]
	m.occ[q] = old - 1
	m.idx.update(int(q), deficit(old), deficit(old-1))
}

// OnReplenish credits one block.
func (m *MDQF) OnReplenish(q cell.PhysQueueID) {
	m.ensure(q)
	old := m.occ[q]
	m.occ[q] = old + int32(m.b)
	m.idx.update(int(q), deficit(old), deficit(old+int32(m.b)))
}

// Occupancy implements HeadMMA.
func (m *MDQF) Occupancy(q cell.PhysQueueID) int {
	if q < 0 || int(q) >= len(m.occ) {
		return 0
	}
	return int(m.occ[q])
}

// SetEligibility implements HeadMMA.
func (m *MDQF) SetEligibility(bits *bitset.Set) { m.elig = bits }

// Select implements HeadMMA: deepest deficit first, ties to the lowest
// queue id for determinism, resolved from the deficit buckets. Only
// queues in actual deficit (occupancy below zero, i.e. requests
// outstanding beyond replenished cells) are considered; otherwise the
// MMA idles like ECQF does.
func (m *MDQF) Select(eligible func(cell.PhysQueueID) bool) (cell.PhysQueueID, bool) {
	tr := m.idx
	for bi := tr.nonEmpty.Last(); bi >= 0; bi = tr.nonEmpty.PrevFrom(bi - 1) {
		set := tr.buckets[bi]
		if bi == tr.overflowAt {
			// Overflow bucket: members have deficit ≥ overflowAt with
			// mixed magnitudes; resolve exactly from the ledger. Any
			// member beats every exact bucket below.
			best, bestOcc, found := cell.NoPhysQueue, int32(0), false
			for i := set.First(); i >= 0; i = set.NextFrom(i + 1) {
				if found && m.occ[i] >= bestOcc {
					continue
				}
				q := cell.PhysQueueID(i)
				if m.elig != nil {
					if !m.elig.Has(i) {
						continue
					}
				} else if eligible != nil && !eligible(q) {
					continue
				}
				best, bestOcc, found = q, m.occ[i], true
			}
			if found {
				return best, true
			}
			continue
		}
		// Exact bucket: every member has deficit bi; lowest eligible
		// id wins. With an eligibility bitset the walk ANDs it in at
		// word granularity.
		if m.elig != nil {
			if i := set.NextAndFrom(m.elig, 0); i >= 0 {
				return cell.PhysQueueID(i), true
			}
			continue
		}
		for i := set.First(); i >= 0; i = set.NextFrom(i + 1) {
			q := cell.PhysQueueID(i)
			if eligible == nil || eligible(q) {
				return q, true
			}
		}
	}
	return cell.NoPhysQueue, false
}
