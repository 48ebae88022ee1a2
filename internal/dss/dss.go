// Package dss implements the DRAM Scheduler Subsystem of §5.3: the
// Requests Register (RR), the Ongoing Requests Register (ORR), and the
// DRAM Scheduler Algorithm (DSA).
//
// The RR is modeled after an out-of-order processor's issue window
// (Figure 9): every DSA cycle (b slots) the ORR's bank tags "wake up"
// the RR entries whose banks are free, the selection logic picks the
// oldest ready entry, and the register compacts to keep age order.
// Choosing the *oldest* non-locked request bounds how often any
// request can be overtaken (equation (2)), which in turn bounds the
// latency register (equation (3)).
package dss

import (
	"errors"
	"fmt"

	"repro/internal/cell"
	"repro/internal/dram"
)

// Direction distinguishes head-side reads (DRAM→SRAM) from tail-side
// writes (SRAM→DRAM). A single DSS schedules both (§5.3 uses 2Q for
// this reason).
type Direction uint8

// Directions.
const (
	Read Direction = iota
	Write
)

// String implements fmt.Stringer.
func (d Direction) String() string {
	if d == Read {
		return "read"
	}
	return "write"
}

// Request is one pending block transfer: a pointer-free descriptor
// (queue, direction, ordinal, bank, block handle), as in Figure 9. The
// data itself stays in the DRAM's block slab, so the Requests Register
// holds no references and compacts by plain memory moves.
type Request struct {
	// Queue is the physical queue being transferred.
	Queue cell.PhysQueueID
	// Dir is the transfer direction.
	Dir Direction
	// Ordinal is the block ordinal reserved in the DRAM for this
	// transfer; it determines Bank under the block-cyclic interleave.
	Ordinal uint64
	// Bank is the target bank (fixed at reservation time).
	Bank dram.BankID
	// Block is the block the request moves: a write's staged block,
	// whose cells the DRAM stores when the write issues, or the
	// read-reserved block a read sends toward the head SRAM.
	Block dram.Block
	// Enqueued is the slot the request entered the RR.
	Enqueued cell.Slot
	// Skips counts how many times a younger request issued first.
	Skips int
}

// Errors returned by the scheduler.
var (
	// ErrRRFull signals that the Requests Register overflowed — with
	// the equation (1) sizing this indicates a violated bound, so the
	// core treats it as an invariant failure.
	ErrRRFull = errors.New("dss: requests register full")
)

// Stats aggregates scheduler observations used to validate the §5.3
// bounds empirically.
type Stats struct {
	// Enqueued and Issued count requests through the RR.
	Enqueued, Issued uint64
	// MaxOccupancy is the RR occupancy high-water mark.
	MaxOccupancy int
	// MaxSkips is the largest per-request skip count observed at issue
	// time (must stay ≤ equation (2)).
	MaxSkips int
	// MaxDelaySlots is the largest enqueue-to-issue delay observed
	// (must stay ≤ equation (3) minus the access time).
	MaxDelaySlots cell.Slot
	// IdleCycles counts DSA cycles with pending requests but none
	// ready (never happens with a correctly sized RR under the
	// block-cyclic interleave, per the [8] proof).
	IdleCycles uint64
	// EmptyCycles counts DSA cycles with an empty RR.
	EmptyCycles uint64
}

// Policy selects the DSA's request-selection discipline.
type Policy uint8

// Policies.
const (
	// OldestReadyFirst is the paper's DSA: select the oldest request
	// whose bank is not locked, skipping over blocked ones (§5.3).
	OldestReadyFirst Policy = iota
	// FIFOBlocking is the ablation baseline: only the head of the RR
	// may issue; a locked bank stalls the whole register. It shows why
	// the issue-queue-like reordering is necessary — conflicting
	// streams collapse its throughput (see the package benchmarks).
	FIFOBlocking
)

// String implements fmt.Stringer.
func (p Policy) String() string {
	if p == FIFOBlocking {
		return "fifo-blocking"
	}
	return "oldest-ready-first"
}

// Scheduler is the DSS. It owns the RR and ORR; the caller drives one
// Cycle per b slots and executes the returned requests against the
// DRAM model.
type Scheduler struct {
	capacity int
	policy   Policy
	rr       []Request // age-ordered: rr[0] is the oldest
	// until is the ORR as a per-bank lock-expiry table: bank k is
	// locked at slot now iff now < until[k]. A bank holds at most one
	// live lock (a locked bank cannot issue), so one slot per bank is
	// the whole register; banks past the end were never locked.
	until []cell.Slot
	// issued is the reusable result buffer handed back by Cycle, so
	// the per-cycle selection does not allocate.
	issued []Request
	stats  Stats
}

// New returns a Scheduler whose RR holds capacity requests. A zero
// capacity builds a degenerate scheduler for the RADS case (every
// request must issue the cycle it is enqueued); Enqueue then always
// fails, so RADS callers bypass the RR via Cycle's immediate path —
// see CycleImmediate.
func New(capacity int) *Scheduler {
	if capacity < 0 {
		capacity = 0
	}
	return &Scheduler{capacity: capacity}
}

// NewWithPolicy returns a Scheduler using the given selection policy
// (New defaults to OldestReadyFirst, the paper's DSA).
func NewWithPolicy(capacity int, p Policy) *Scheduler {
	s := New(capacity)
	s.policy = p
	return s
}

// Policy returns the selection discipline in use.
func (s *Scheduler) Policy() Policy { return s.policy }

// Capacity returns the RR capacity.
func (s *Scheduler) Capacity() int { return s.capacity }

// Len returns the current RR occupancy.
func (s *Scheduler) Len() int { return len(s.rr) }

// CanEnqueue reports whether one more request fits.
func (s *Scheduler) CanEnqueue() bool { return len(s.rr) < s.capacity }

// Stats returns a copy of the accumulated statistics.
func (s *Scheduler) Stats() Stats { return s.stats }

// SkipIdleCycles credits n scheduling cycles elided by the core's
// fast-forward path while the RR was empty. It keeps the statistics
// bit-identical to running Cycle n times on an empty register: each
// such Cycle would count exactly one EmptyCycle and do nothing else
// observable (an ORR lock stops locking its bank once its slot has
// passed, whether or not a Cycle runs).
func (s *Scheduler) SkipIdleCycles(n uint64) { s.stats.EmptyCycles += n }

// Enqueue appends a request at the RR tail (the MMA issues one request
// per b slots; reads and writes share the register).
func (s *Scheduler) Enqueue(r Request) error {
	if len(s.rr) >= s.capacity {
		return fmt.Errorf("%w: capacity %d", ErrRRFull, s.capacity)
	}
	s.rr = append(s.rr, r)
	s.stats.Enqueued++
	if len(s.rr) > s.stats.MaxOccupancy {
		s.stats.MaxOccupancy = len(s.rr)
	}
	return nil
}

// locked reports whether bank b is in the ORR at slot now.
func (s *Scheduler) locked(b dram.BankID, now cell.Slot) bool {
	return int(b) < len(s.until) && now < s.until[b]
}

// lock registers bank b in the ORR until slot until (never shortening
// a lock the bank already holds).
func (s *Scheduler) lock(b dram.BankID, until cell.Slot) {
	if int(b) >= len(s.until) {
		s.until = append(s.until, make([]cell.Slot, int(b)+1-len(s.until))...)
	}
	s.until[b] = max(s.until[b], until)
}

// ORRLen returns the number of live ORR entries at slot now. It is
// bounded by issuesPerCycle·(B/b − 1), matching §5.3's "size of the
// ORR is hence (B/b)−1" for the single-issue case.
func (s *Scheduler) ORRLen(now cell.Slot) int {
	n := 0
	for _, until := range s.until {
		if now < until {
			n++
		}
	}
	return n
}

// Cycle runs one DSA scheduling cycle at slot now: it selects up to
// budget requests — each the *oldest* whose bank is neither locked in
// the ORR nor selected earlier this cycle — removes them from the RR
// (compacting, so age order is preserved), registers their banks in
// the ORR for accessSlots slots, and returns them in selection order.
//
// budget is 2 in the paper's configuration: the buffer sustains one
// read and one write block per b slots (bandwidth 2× the line rate).
//
// The returned slice is owned by the Scheduler and valid only until
// the next Cycle call; callers must consume it before cycling again.
func (s *Scheduler) Cycle(now cell.Slot, budget, accessSlots int) []Request {
	if len(s.rr) == 0 {
		s.stats.EmptyCycles++
		return nil
	}
	issued := s.issued[:0]
	// cursor is where the oldest-ready scan resumes within this cycle:
	// entries before it were already probed and found bank-locked, and
	// locks only accumulate during a cycle (none expires before the next
	// one), so they stay unselectable until the next cycle. This
	// folds the per-issue rescan of the register into one rotating
	// pass: at most len(rr)+budget probes per cycle in total.
	cursor := 0
	for n := 0; n < budget; n++ {
		idx := -1
		if s.policy == FIFOBlocking {
			if len(s.rr) > 0 && !s.locked(s.rr[0].Bank, now) {
				idx = 0
			}
		} else {
			for i := cursor; i < len(s.rr); i++ {
				if !s.locked(s.rr[i].Bank, now) {
					idx = i
					break
				}
			}
		}
		if idx < 0 {
			if len(s.rr) > 0 && n == 0 {
				s.stats.IdleCycles++
			}
			break
		}
		req := s.rr[idx]
		// Everything older than the selected request is overtaken.
		for i := 0; i < idx; i++ {
			s.rr[i].Skips++
			if s.rr[i].Skips > s.stats.MaxSkips {
				s.stats.MaxSkips = s.rr[i].Skips
			}
		}
		// Compact: shift the tail forward, preserving age order
		// ("the requests from this position to the tail of the RR are
		// shifted ahead", §5.3). The scan resumes at the compacted
		// position: everything before it stays locked this cycle.
		s.rr = append(s.rr[:idx], s.rr[idx+1:]...)
		cursor = idx
		s.lock(req.Bank, now+cell.Slot(accessSlots))
		if req.Skips > s.stats.MaxSkips {
			s.stats.MaxSkips = req.Skips
		}
		if d := now - req.Enqueued; d > s.stats.MaxDelaySlots {
			s.stats.MaxDelaySlots = d
		}
		s.stats.Issued++
		issued = append(issued, req)
		if len(s.rr) == 0 {
			break
		}
	}
	s.issued = issued
	if len(issued) == 0 {
		return nil
	}
	return issued
}
