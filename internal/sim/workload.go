// Package sim provides the workload generators behind repro/pktbuf/sim,
// whose Runner drives them. They model the traffic classes the
// paper's worst-case analysis must survive — most importantly the §3
// adversarial round-robin drain ("the scheduler requests goes through
// the queues in a round-robin manner removing one packet per queue"),
// plus uniform, bursty on/off, hotspot and single-queue patterns for
// the average case.
//
// Arrival processes and request policies are deterministic given their
// seed, so every experiment is reproducible. Constructors reject bad
// parameters with errors wrapping core.ErrBadConfig.
package sim

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/cell"
	"repro/internal/core"
)

// View is the read-only buffer state a request policy may consult.
// Requesting a queue with zero Requestable cells is forbidden by the
// system model (§2), so every policy filters through this view.
type View interface {
	// Requestable returns how many cells of q may still be requested.
	Requestable(q cell.QueueID) int
	// Len returns the number of cells of q in the buffer.
	Len(q cell.QueueID) int
}

// ArrivalProcess produces at most one arriving cell per slot.
type ArrivalProcess interface {
	// Next returns the queue of the cell arriving at slot, or
	// cell.NoQueue for an idle slot.
	Next(slot cell.Slot) cell.QueueID
}

// BatchArrivalProcess is the optional fast path the Runner's RunBatch uses
// to hoist the per-slot interface dispatch out of the inner loop: one
// NextBatch call generates the arrivals for len(out) consecutive
// slots starting at start. Implementations must be equivalent to
// calling Next once per slot in order.
type BatchArrivalProcess interface {
	ArrivalProcess
	NextBatch(start cell.Slot, out []cell.QueueID)
}

// SparseArrivalProcess is the optional fast path the Runner uses to
// fast-forward idle spans: NextArrival advances the process past the
// idle gap starting at slot from and returns the slot of its next
// arrival, exactly as if Next had been called once per slot in
// [from, returned) with every call returning cell.NoQueue. If the
// next arrival falls at or beyond limit the process advances only
// through limit-1 and returns limit. A process whose gap lengths are
// drawn directly (geometric Bernoulli, on/off burst counters) answers
// in O(1), so a load-ρ source costs O(ρ·slots) instead of O(slots).
type SparseArrivalProcess interface {
	ArrivalProcess
	NextArrival(from, limit cell.Slot) cell.Slot
}

// RequestPolicy produces at most one scheduler request per slot.
type RequestPolicy interface {
	// Next returns the queue to request at slot, or cell.NoQueue. The
	// returned queue must have Requestable > 0.
	Next(slot cell.Slot, v View) cell.QueueID
}

// StableRequestPolicy marks policies the Runner may elide while
// fast-forwarding: Next ignores its slot argument, consumes no
// per-slot state (no RNG draw per call), and a call that returns
// cell.NoQueue leaves the policy unchanged — so if it returns NoQueue
// once it keeps returning NoQueue until the buffer view changes. All
// deterministic policies in this package implement it; the rate-based
// random policy does not (it draws from its RNG every slot).
type StableRequestPolicy interface {
	RequestPolicy
	// IdleStable reports that the contract above holds.
	IdleStable() bool
}

// ---------------------------------------------------------------- arrivals

// uniformArrivals sends Bernoulli(load) arrivals to uniformly random
// queues.
type uniformArrivals struct {
	q    int
	load float64
	rng  *rand.Rand
}

// NewUniformArrivals returns an arrival process with the given offered
// load (cells per slot, 0..1) spread uniformly over q queues.
func NewUniformArrivals(q int, load float64, seed int64) (ArrivalProcess, error) {
	if q <= 0 {
		return nil, fmt.Errorf("sim: queues must be positive, got %d: %w", q, core.ErrBadConfig)
	}
	if load < 0 || load > 1 {
		return nil, fmt.Errorf("sim: load must be in [0,1], got %v: %w", load, core.ErrBadConfig)
	}
	return &uniformArrivals{q: q, load: load, rng: rand.New(rand.NewSource(seed))}, nil
}

func (u *uniformArrivals) Next(cell.Slot) cell.QueueID {
	if u.rng.Float64() >= u.load {
		return cell.NoQueue
	}
	return cell.QueueID(u.rng.Intn(u.q))
}

// NextBatch implements BatchArrivalProcess.
func (u *uniformArrivals) NextBatch(start cell.Slot, out []cell.QueueID) {
	for i := range out {
		out[i] = u.Next(start + cell.Slot(i))
	}
}

// bernoulliArrivals is a Bernoulli(load) process over uniformly random
// queues that draws the geometric inter-arrival gaps directly (one RNG
// draw per arrival, not per slot) and tracks the next arrival as an
// absolute slot. Idle Next calls are therefore pure probes, which is
// what makes the O(1) NextArrival jump exact.
type bernoulliArrivals struct {
	q    int
	load float64
	rng  *rand.Rand
	next cell.Slot
	init bool
}

// noArrival is the "never" sentinel for bernoulliArrivals.next.
const noArrival = ^cell.Slot(0)

// NewBernoulliArrivals returns a sparse Bernoulli arrival process with
// the given offered load (cells per slot, 0..1) spread uniformly over
// q queues. Its per-slot marginal matches NewUniformArrivals, but the
// RNG is consumed per arrival rather than per slot, so it implements
// SparseArrivalProcess and idle spans cost nothing to generate.
func NewBernoulliArrivals(q int, load float64, seed int64) (ArrivalProcess, error) {
	if q <= 0 {
		return nil, fmt.Errorf("sim: queues must be positive, got %d: %w", q, core.ErrBadConfig)
	}
	if load < 0 || load > 1 {
		return nil, fmt.Errorf("sim: load must be in [0,1], got %v: %w", load, core.ErrBadConfig)
	}
	return &bernoulliArrivals{q: q, load: load, rng: rand.New(rand.NewSource(seed))}, nil
}

// gap draws one geometric inter-arrival gap (≥ 1 slot).
func (a *bernoulliArrivals) gap() cell.Slot {
	if a.load >= 1 {
		return 1
	}
	// Inverse-CDF geometric: P(gap = k) = ρ(1−ρ)^(k−1).
	return 1 + cell.Slot(math.Log(1-a.rng.Float64())/math.Log(1-a.load))
}

// ensure lazily anchors the first arrival at the first polled slot.
func (a *bernoulliArrivals) ensure(slot cell.Slot) {
	if a.init {
		return
	}
	a.init = true
	if a.load <= 0 {
		a.next = noArrival
		return
	}
	a.next = slot + a.gap() - 1
}

func (a *bernoulliArrivals) Next(slot cell.Slot) cell.QueueID {
	a.ensure(slot)
	if slot < a.next {
		return cell.NoQueue
	}
	q := cell.QueueID(a.rng.Intn(a.q))
	a.next = slot + a.gap()
	return q
}

// NextBatch implements BatchArrivalProcess: idle slots are filled by
// comparison only, no RNG traffic.
func (a *bernoulliArrivals) NextBatch(start cell.Slot, out []cell.QueueID) {
	a.ensure(start)
	for i := range out {
		slot := start + cell.Slot(i)
		if slot < a.next {
			out[i] = cell.NoQueue
			continue
		}
		out[i] = a.Next(slot)
	}
}

// NextArrival implements SparseArrivalProcess. Idle probes do not
// mutate the process, so the jump is a pure min(next, limit).
func (a *bernoulliArrivals) NextArrival(from, limit cell.Slot) cell.Slot {
	a.ensure(from)
	t := a.next
	if t < from {
		t = from
	}
	if t > limit {
		t = limit
	}
	return t
}

// roundRobinArrivals cycles deterministically over the queues at the
// given load (every k-th slot idles to shape the rate).
type roundRobinArrivals struct {
	q    int
	load float64
	next int
	acc  float64
}

// NewRoundRobinArrivals returns a deterministic round-robin arrival
// process at the given load.
func NewRoundRobinArrivals(q int, load float64) (ArrivalProcess, error) {
	if q <= 0 {
		return nil, fmt.Errorf("sim: queues must be positive, got %d: %w", q, core.ErrBadConfig)
	}
	if load < 0 || load > 1 {
		return nil, fmt.Errorf("sim: load must be in [0,1], got %v: %w", load, core.ErrBadConfig)
	}
	return &roundRobinArrivals{q: q, load: load}, nil
}

func (r *roundRobinArrivals) Next(cell.Slot) cell.QueueID {
	r.acc += r.load
	if r.acc < 1 {
		return cell.NoQueue
	}
	r.acc -= 1
	q := cell.QueueID(r.next)
	r.next = (r.next + 1) % r.q
	return q
}

// NextBatch implements BatchArrivalProcess.
func (r *roundRobinArrivals) NextBatch(start cell.Slot, out []cell.QueueID) {
	for i := range out {
		out[i] = r.Next(start + cell.Slot(i))
	}
}

// hotspotArrivals sends hotFrac of the traffic to queue 0 and spreads
// the rest uniformly.
type hotspotArrivals struct {
	q       int
	load    float64
	hotFrac float64
	rng     *rand.Rand
}

// NewHotspotArrivals returns a skewed arrival process: fraction
// hotFrac of cells target queue 0.
func NewHotspotArrivals(q int, load, hotFrac float64, seed int64) (ArrivalProcess, error) {
	if q <= 0 {
		return nil, fmt.Errorf("sim: queues must be positive, got %d: %w", q, core.ErrBadConfig)
	}
	if load < 0 || load > 1 || hotFrac < 0 || hotFrac > 1 {
		return nil, fmt.Errorf("sim: load/hotFrac must be in [0,1]: %w", core.ErrBadConfig)
	}
	return &hotspotArrivals{q: q, load: load, hotFrac: hotFrac, rng: rand.New(rand.NewSource(seed))}, nil
}

func (h *hotspotArrivals) Next(cell.Slot) cell.QueueID {
	if h.rng.Float64() >= h.load {
		return cell.NoQueue
	}
	if h.rng.Float64() < h.hotFrac || h.q == 1 {
		return 0
	}
	return cell.QueueID(1 + h.rng.Intn(h.q-1))
}

// burstyArrivals is a two-state (on/off) Markov-modulated process: in
// the on state cells arrive back-to-back to one queue; bursts switch
// queues.
type burstyArrivals struct {
	q         int
	meanOn    float64
	meanOff   float64
	rng       *rand.Rand
	on        bool
	current   cell.QueueID
	remaining int
}

// NewBurstyArrivals returns an on/off burst process with geometric
// burst and gap lengths (means meanOn and meanOff slots). The offered
// load is meanOn/(meanOn+meanOff).
func NewBurstyArrivals(q int, meanOn, meanOff float64, seed int64) (ArrivalProcess, error) {
	if q <= 0 {
		return nil, fmt.Errorf("sim: queues must be positive, got %d: %w", q, core.ErrBadConfig)
	}
	if meanOn < 1 || meanOff < 0 {
		return nil, fmt.Errorf("sim: meanOn must be ≥1 and meanOff ≥0: %w", core.ErrBadConfig)
	}
	return &burstyArrivals{q: q, meanOn: meanOn, meanOff: meanOff, rng: rand.New(rand.NewSource(seed))}, nil
}

func (b *burstyArrivals) geometric(mean float64) int {
	if mean <= 0 {
		return 0
	}
	n := 1
	for b.rng.Float64() < (mean-1)/mean {
		n++
	}
	return n
}

func (b *burstyArrivals) Next(cell.Slot) cell.QueueID {
	for b.remaining == 0 {
		b.toggle()
	}
	b.remaining--
	if !b.on {
		return cell.NoQueue
	}
	return b.current
}

func (b *burstyArrivals) toggle() {
	b.on = !b.on
	if b.on {
		b.current = cell.QueueID(b.rng.Intn(b.q))
		b.remaining = b.geometric(b.meanOn)
	} else {
		b.remaining = b.geometric(b.meanOff)
	}
}

// NextArrival implements SparseArrivalProcess: off-period slots are
// consumed by bulk-decrementing the remaining-gap counter, with the
// same RNG consumption per state toggle as per-slot Next calls.
func (b *burstyArrivals) NextArrival(from, limit cell.Slot) cell.Slot {
	for from < limit {
		for b.remaining == 0 {
			b.toggle()
		}
		if b.on {
			return from
		}
		k := cell.Slot(b.remaining)
		if k > limit-from {
			k = limit - from
		}
		b.remaining -= int(k)
		from += k
	}
	return limit
}

// singleQueueArrivals floods one queue at full rate.
type singleQueueArrivals struct{ q cell.QueueID }

// NewSingleQueueArrivals floods queue q with one cell per slot.
func NewSingleQueueArrivals(q cell.QueueID) ArrivalProcess {
	return singleQueueArrivals{q: q}
}

func (s singleQueueArrivals) Next(cell.Slot) cell.QueueID { return s.q }

// NextBatch implements BatchArrivalProcess. The process deliberately
// does not implement SparseArrivalProcess: a cell arrives every slot,
// so there is never anything to fast-forward and the batched path is
// strictly better.
func (s singleQueueArrivals) NextBatch(_ cell.Slot, out []cell.QueueID) {
	for i := range out {
		out[i] = s.q
	}
}

// ---------------------------------------------------------------- requests

// roundRobinDrain is the paper's adversarial pattern: one cell per
// queue, cycling, skipping queues with nothing requestable.
type roundRobinDrain struct {
	q    int
	next int
}

// NewRoundRobinDrain returns the §3 adversarial request policy.
func NewRoundRobinDrain(q int) (RequestPolicy, error) {
	if q <= 0 {
		return nil, fmt.Errorf("sim: queues must be positive, got %d: %w", q, core.ErrBadConfig)
	}
	return &roundRobinDrain{q: q}, nil
}

func (r *roundRobinDrain) Next(_ cell.Slot, v View) cell.QueueID {
	for i := 0; i < r.q; i++ {
		q := cell.QueueID((r.next + i) % r.q)
		if v.Requestable(q) > 0 {
			r.next = (int(q) + 1) % r.q
			return q
		}
	}
	return cell.NoQueue
}

// IdleStable implements StableRequestPolicy: the scan is a pure
// function of the view and moves the cursor only when it requests.
func (r *roundRobinDrain) IdleStable() bool { return true }

// uniformRequests requests uniformly random non-empty queues at the
// given rate.
type uniformRequests struct {
	q    int
	rate float64
	rng  *rand.Rand
}

// NewUniformRequests returns a random request policy issuing requests
// at the given rate.
func NewUniformRequests(q int, rate float64, seed int64) (RequestPolicy, error) {
	if q <= 0 {
		return nil, fmt.Errorf("sim: queues must be positive, got %d: %w", q, core.ErrBadConfig)
	}
	if rate < 0 || rate > 1 {
		return nil, fmt.Errorf("sim: rate must be in [0,1], got %v: %w", rate, core.ErrBadConfig)
	}
	return &uniformRequests{q: q, rate: rate, rng: rand.New(rand.NewSource(seed))}, nil
}

func (u *uniformRequests) Next(_ cell.Slot, v View) cell.QueueID {
	if u.rng.Float64() >= u.rate {
		return cell.NoQueue
	}
	// Try a few random probes, then fall back to a scan.
	for i := 0; i < 4; i++ {
		q := cell.QueueID(u.rng.Intn(u.q))
		if v.Requestable(q) > 0 {
			return q
		}
	}
	start := u.rng.Intn(u.q)
	for i := 0; i < u.q; i++ {
		q := cell.QueueID((start + i) % u.q)
		if v.Requestable(q) > 0 {
			return q
		}
	}
	return cell.NoQueue
}

// longestFirst always drains the longest queue — the opposite extreme
// of round-robin.
type longestFirst struct{ q int }

// NewLongestFirst returns a policy that requests the queue with the
// most requestable cells.
func NewLongestFirst(q int) (RequestPolicy, error) {
	if q <= 0 {
		return nil, fmt.Errorf("sim: queues must be positive, got %d: %w", q, core.ErrBadConfig)
	}
	return &longestFirst{q: q}, nil
}

func (l *longestFirst) Next(_ cell.Slot, v View) cell.QueueID {
	best, bestN := cell.NoQueue, 0
	for q := 0; q < l.q; q++ {
		if n := v.Requestable(cell.QueueID(q)); n > bestN {
			best, bestN = cell.QueueID(q), n
		}
	}
	return best
}

// IdleStable implements StableRequestPolicy (the policy is stateless).
func (l *longestFirst) IdleStable() bool { return true }

// permutationDrain walks a fixed permutation, one cell per visit — a
// rotated variant of the adversarial pattern.
type permutationDrain struct {
	perm []cell.QueueID
	pos  int
}

// NewPermutationDrain cycles over the given queue permutation.
func NewPermutationDrain(perm []cell.QueueID) (RequestPolicy, error) {
	if len(perm) == 0 {
		return nil, fmt.Errorf("sim: permutation must be non-empty: %w", core.ErrBadConfig)
	}
	p := make([]cell.QueueID, len(perm))
	copy(p, perm)
	return &permutationDrain{perm: p}, nil
}

func (p *permutationDrain) Next(_ cell.Slot, v View) cell.QueueID {
	for i := 0; i < len(p.perm); i++ {
		q := p.perm[(p.pos+i)%len(p.perm)]
		if v.Requestable(q) > 0 {
			p.pos = (p.pos + i + 1) % len(p.perm)
			return q
		}
	}
	return cell.NoQueue
}

// IdleStable implements StableRequestPolicy: the walk is a pure
// function of the view and moves the cursor only when it requests.
func (p *permutationDrain) IdleStable() bool { return true }

// idleRequests never requests (fill-only phases).
type idleRequests struct{}

// NewIdleRequests returns a policy that never issues requests.
func NewIdleRequests() RequestPolicy { return idleRequests{} }

func (idleRequests) Next(cell.Slot, View) cell.QueueID { return cell.NoQueue }

// IdleStable implements StableRequestPolicy (never any state).
func (idleRequests) IdleStable() bool { return true }
