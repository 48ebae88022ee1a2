// Package sim is the public simulation driver for the packet buffer:
// a slot-loop runner with a batched fast path, plus the workload
// generators the paper's worst-case analysis must survive — most
// importantly the §3 adversarial round-robin drain — and uniform,
// bursty on/off, hotspot and single-queue patterns for the average
// case.
//
// A Runner drives a *pktbuf.Buffer with an ArrivalProcess and a
// RequestPolicy, one slot at a time; it is the only slot-loop driver
// in the module. The generators are deterministic given their seed,
// so every experiment is reproducible, and their constructors reject
// bad parameters with errors wrapping pktbuf.ErrBadConfig.
package sim

import (
	"errors"
	"fmt"

	"repro/pktbuf"
)

// View is the read-only buffer state a request policy may consult.
// Requesting a queue with zero Requestable cells is forbidden by the
// system model (§2), so every policy filters through this view.
// *pktbuf.Buffer implements View.
type View interface {
	// Requestable returns how many cells of q may still be requested.
	Requestable(q pktbuf.Queue) int
	// Len returns the number of cells of q in the buffer.
	Len(q pktbuf.Queue) int
}

// ArrivalProcess produces at most one arriving cell per slot.
type ArrivalProcess interface {
	// Next returns the queue of the cell arriving at slot, or
	// pktbuf.None for an idle slot.
	Next(slot uint64) pktbuf.Queue
}

// BatchArrivalProcess is the optional fast path Runner.RunBatch uses
// to hoist the per-slot interface dispatch out of the inner loop: one
// NextBatch call generates the arrivals for len(out) consecutive
// slots starting at start. Implementations must be equivalent to
// calling Next once per slot in order. Every generator constructed by
// this package implements it.
type BatchArrivalProcess interface {
	ArrivalProcess
	NextBatch(start uint64, out []pktbuf.Queue)
}

// SparseArrivalProcess is the optional fast path the Runner uses to
// fast-forward idle spans: NextArrival advances the process past the
// idle gap starting at slot from and returns the slot of its next
// arrival, exactly as if Next had been called once per slot in
// [from, returned) with every call returning pktbuf.None. If the next
// arrival falls at or beyond limit the process advances only through
// limit-1 and returns limit. NewBernoulliArrivals and
// NewBurstyArrivals produce sparse processes.
type SparseArrivalProcess interface {
	ArrivalProcess
	NextArrival(from, limit uint64) uint64
}

// RequestPolicy produces at most one scheduler request per slot.
type RequestPolicy interface {
	// Next returns the queue to request at slot, or pktbuf.None. The
	// returned queue must have Requestable > 0.
	Next(slot uint64, v View) pktbuf.Queue
}

// StableRequestPolicy marks policies the Runner may elide while
// fast-forwarding: Next ignores its slot argument, consumes no
// per-slot state (no RNG draw per call), and a call that returns
// pktbuf.None leaves the policy unchanged — so if it returns None
// once it keeps returning None until the buffer view changes. The
// deterministic policies of this package (round-robin drain, longest
// first, permutation drain, idle) report true; the rate-based random
// policy reports false.
type StableRequestPolicy interface {
	RequestPolicy
	// IdleStable reports that the contract above holds.
	IdleStable() bool
}

// Result summarizes one simulation run.
type Result struct {
	// Slots is the number of slots simulated.
	Slots uint64
	// Stats is the buffer's final statistics snapshot.
	Stats pktbuf.Stats
	// DropsAllowed reports whether ErrBufferFull was tolerated.
	DropsAllowed bool
}

// Clean reports whether the run upheld every worst-case guarantee
// (drops excluded when they were explicitly allowed).
func (r Result) Clean() bool {
	s := r.Stats
	if r.DropsAllowed {
		s.Drops = 0
	}
	return s.Clean()
}

// Runner drives a pktbuf.Buffer with an arrival process and a request
// policy, one slot at a time.
type Runner struct {
	// Buffer is the system under test.
	Buffer *pktbuf.Buffer
	// Arrivals feeds the ingress; Requests models the fabric scheduler.
	Arrivals ArrivalProcess
	Requests RequestPolicy
	// AllowDrops tolerates ErrBufferFull (bounded-DRAM experiments);
	// any other error aborts the run.
	AllowDrops bool
	// OnDeliver, when set, observes every delivered cell.
	OnDeliver func(c pktbuf.Cell, bypassed bool)

	// arrScratch is the reused arrival batch buffer, so repeated
	// RunBatch calls allocate nothing.
	arrScratch []pktbuf.Queue
}

// Run simulates the given number of slots.
func (r *Runner) Run(slots uint64) (Result, error) {
	return r.RunBatch(slots, 1)
}

// defaultBatch is the RunBatch chunk size when the caller passes 0.
const defaultBatch = 4096

// RunBatch simulates the given number of slots in chunks of batch
// (0 selects a default). It is the fast path for long steady-state
// runs: arrivals are generated a whole chunk at a time for
// BatchArrivalProcess implementations, the delivery-callback and
// drop-tolerance branches are resolved per batch, and the Stats
// snapshot is taken once at the end of the run.
//
// When the arrival process is sparse (SparseArrivalProcess) and the
// request policy is idle-stable (StableRequestPolicy), idle spans are
// not ticked at all: as soon as a slot carries no request and the
// buffer reports Quiescent, the runner jumps straight to the next
// arrival with Buffer.FastForward — bit-identical to ticking every
// skipped slot, but O(1) per idle span — so a load-ρ run costs
// O(ρ·slots), not O(slots).
func (r *Runner) RunBatch(slots, batch uint64) (Result, error) {
	if r.Buffer == nil || r.Arrivals == nil || r.Requests == nil {
		return Result{}, fmt.Errorf("sim: runner needs Buffer, Arrivals and Requests: %w",
			pktbuf.ErrBadConfig)
	}
	if batch == 0 {
		batch = defaultBatch
	}
	res := Result{DropsAllowed: r.AllowDrops}
	buf := r.Buffer
	onDeliver := r.OnDeliver
	sparseArr, sparse := r.Arrivals.(SparseArrivalProcess)
	if sp, ok := r.Requests.(StableRequestPolicy); !ok || !sp.IdleStable() {
		sparse = false
	}
	batchArr, batched := r.Arrivals.(BatchArrivalProcess)
	if !sparse && batched && batch > 1 {
		if uint64(cap(r.arrScratch)) < batch {
			r.arrScratch = make([]pktbuf.Queue, batch)
		}
	} else {
		batched = false
	}
	for done := uint64(0); done < slots; {
		n := batch
		if left := slots - done; left < n {
			n = left
		}
		if batched {
			batchArr.NextBatch(buf.Now(), r.arrScratch[:n])
		}
		for i := uint64(0); i < n; {
			now := buf.Now()
			var in pktbuf.Input
			if sparse {
				// Policy first: a slot with a request can never be
				// skipped, and an idle-stable policy that answers None
				// would answer None for every skipped slot too (the view
				// does not change across a fast-forward). The dense path
				// below keeps the arrival-first call order the trace
				// recorder's slot pairing relies on.
				in.Request = r.Requests.Next(now, buf)
				if in.Request == pktbuf.None && buf.Quiescent() {
					if next := sparseArr.NextArrival(now, now+n-i); next > now {
						i += buf.FastForward(next - now)
						continue
					}
				}
				in.Arrival = r.Arrivals.Next(now)
			} else {
				if batched {
					in.Arrival = r.arrScratch[i]
				} else {
					in.Arrival = r.Arrivals.Next(now)
				}
				in.Request = r.Requests.Next(now, buf)
			}
			out, err := buf.Tick(in)
			if err != nil && !(r.AllowDrops && errors.Is(err, pktbuf.ErrBufferFull)) {
				res.Slots = done + i + 1
				res.Stats = buf.Stats()
				return res, fmt.Errorf("sim: slot %d: %w", done+i, err)
			}
			if out.Ok && onDeliver != nil {
				onDeliver(out.Delivered, out.Bypassed)
			}
			i++
		}
		done += n
	}
	res.Slots = slots
	res.Stats = buf.Stats()
	return res, nil
}

// Drain keeps requesting until the buffer is fully quiescent or
// maxSlots pass, with no further arrivals. It returns the number of
// cells delivered and the exact slot the last of them was delivered
// in (zero when nothing was delivered). Termination uses the buffer's
// quiescence predicate: the loop stops — without spending a slot —
// the moment the policy issues no request and an idle tick would be a
// pure time advance, so draining an already-empty buffer is O(1) and
// a populated one costs exactly the slots its pipeline and in-flight
// transfers need.
func (r *Runner) Drain(maxSlots uint64) (delivered, lastSlot uint64, err error) {
	buf := r.Buffer
	for s := uint64(0); s < maxSlots; s++ {
		in := pktbuf.Input{
			Arrival: pktbuf.None,
			Request: r.Requests.Next(buf.Now(), buf),
		}
		if in.Request == pktbuf.None && buf.Quiescent() {
			break
		}
		out, err := buf.Tick(in)
		if err != nil {
			return delivered, lastSlot, fmt.Errorf("sim: drain slot %d: %w", s, err)
		}
		if out.Ok {
			delivered++
			lastSlot = buf.Now() - 1
			if r.OnDeliver != nil {
				r.OnDeliver(out.Delivered, out.Bypassed)
			}
		}
	}
	return delivered, lastSlot, nil
}
