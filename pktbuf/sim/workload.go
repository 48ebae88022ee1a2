package sim

import (
	"fmt"
	"math"
	"math/rand"

	"repro/pktbuf"
)

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
	if err := checkQueuesLoad(q, load); err != nil {
		return nil, err
	}
	return &uniformArrivals{q: q, load: load, rng: rand.New(rand.NewSource(seed))}, nil
}

func (u *uniformArrivals) Next(uint64) pktbuf.Queue {
	if u.rng.Float64() >= u.load {
		return pktbuf.None
	}
	return pktbuf.Queue(u.rng.Intn(u.q))
}

// NextBatch implements BatchArrivalProcess.
func (u *uniformArrivals) NextBatch(start uint64, out []pktbuf.Queue) {
	for i := range out {
		out[i] = u.Next(start + uint64(i))
	}
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
	if err := checkQueuesLoad(q, load); err != nil {
		return nil, err
	}
	return &roundRobinArrivals{q: q, load: load}, nil
}

func (r *roundRobinArrivals) Next(uint64) pktbuf.Queue {
	r.acc += r.load
	if r.acc < 1 {
		return pktbuf.None
	}
	r.acc -= 1
	q := pktbuf.Queue(r.next)
	r.next = (r.next + 1) % r.q
	return q
}

// NextBatch implements BatchArrivalProcess.
func (r *roundRobinArrivals) NextBatch(start uint64, out []pktbuf.Queue) {
	for i := range out {
		out[i] = r.Next(start + uint64(i))
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
// hotFrac of cells target queue 0, the rest spread uniformly.
func NewHotspotArrivals(q int, load, hotFrac float64, seed int64) (ArrivalProcess, error) {
	if q <= 0 {
		return nil, fmt.Errorf("sim: queues must be positive, got %d: %w", q, pktbuf.ErrBadConfig)
	}
	if load < 0 || load > 1 || hotFrac < 0 || hotFrac > 1 {
		return nil, fmt.Errorf("sim: load/hotFrac must be in [0,1]: %w", pktbuf.ErrBadConfig)
	}
	return &hotspotArrivals{q: q, load: load, hotFrac: hotFrac, rng: rand.New(rand.NewSource(seed))}, nil
}

func (h *hotspotArrivals) Next(uint64) pktbuf.Queue {
	if h.rng.Float64() >= h.load {
		return pktbuf.None
	}
	if h.rng.Float64() < h.hotFrac || h.q == 1 {
		return 0
	}
	return pktbuf.Queue(1 + h.rng.Intn(h.q-1))
}

// NextBatch implements BatchArrivalProcess.
func (h *hotspotArrivals) NextBatch(start uint64, out []pktbuf.Queue) {
	for i := range out {
		out[i] = h.Next(start + uint64(i))
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
	next uint64
	init bool
}

// noArrival is the "never" sentinel for bernoulliArrivals.next.
const noArrival = ^uint64(0)

// NewBernoulliArrivals returns a sparse Bernoulli arrival process with
// the given offered load (cells per slot, 0..1) spread uniformly over
// q queues. Its per-slot marginal matches NewUniformArrivals, but the
// geometric inter-arrival gaps are drawn directly (one RNG draw per
// arrival, not per slot), so it supports the Runner's fast-forward
// path: a load-ρ run with an idle-stable request policy costs
// O(ρ·slots) instead of O(slots).
func NewBernoulliArrivals(q int, load float64, seed int64) (ArrivalProcess, error) {
	if err := checkQueuesLoad(q, load); err != nil {
		return nil, err
	}
	return &bernoulliArrivals{q: q, load: load, rng: rand.New(rand.NewSource(seed))}, nil
}

// gap draws one geometric inter-arrival gap (≥ 1 slot).
func (a *bernoulliArrivals) gap() uint64 {
	if a.load >= 1 {
		return 1
	}
	// Inverse-CDF geometric: P(gap = k) = ρ(1−ρ)^(k−1).
	return 1 + uint64(math.Log(1-a.rng.Float64())/math.Log(1-a.load))
}

// ensure lazily anchors the first arrival at the first polled slot.
func (a *bernoulliArrivals) ensure(slot uint64) {
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

func (a *bernoulliArrivals) Next(slot uint64) pktbuf.Queue {
	a.ensure(slot)
	if slot < a.next {
		return pktbuf.None
	}
	q := pktbuf.Queue(a.rng.Intn(a.q))
	a.next = slot + a.gap()
	return q
}

// NextBatch implements BatchArrivalProcess: idle slots are filled by
// comparison only, no RNG traffic.
func (a *bernoulliArrivals) NextBatch(start uint64, out []pktbuf.Queue) {
	a.ensure(start)
	for i := range out {
		slot := start + uint64(i)
		if slot < a.next {
			out[i] = pktbuf.None
			continue
		}
		out[i] = a.Next(slot)
	}
}

// NextArrival implements SparseArrivalProcess. Idle probes do not
// mutate the process, so the jump is a pure min(next, limit).
func (a *bernoulliArrivals) NextArrival(from, limit uint64) uint64 {
	a.ensure(from)
	return min(max(a.next, from), limit)
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
	current   pktbuf.Queue
	remaining int
}

// NewBurstyArrivals returns an on/off burst process with geometric
// burst and gap lengths (means meanOn and meanOff slots). The offered
// load is meanOn/(meanOn+meanOff).
func NewBurstyArrivals(q int, meanOn, meanOff float64, seed int64) (ArrivalProcess, error) {
	if q <= 0 {
		return nil, fmt.Errorf("sim: queues must be positive, got %d: %w", q, pktbuf.ErrBadConfig)
	}
	if meanOn < 1 || meanOff < 0 {
		return nil, fmt.Errorf("sim: meanOn must be ≥1 and meanOff ≥0: %w", pktbuf.ErrBadConfig)
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

func (b *burstyArrivals) Next(uint64) pktbuf.Queue {
	for b.remaining == 0 {
		b.toggle()
	}
	b.remaining--
	if !b.on {
		return pktbuf.None
	}
	return b.current
}

func (b *burstyArrivals) toggle() {
	b.on = !b.on
	if b.on {
		b.current = pktbuf.Queue(b.rng.Intn(b.q))
		b.remaining = b.geometric(b.meanOn)
	} else {
		b.remaining = b.geometric(b.meanOff)
	}
}

// NextBatch implements BatchArrivalProcess.
func (b *burstyArrivals) NextBatch(start uint64, out []pktbuf.Queue) {
	for i := range out {
		out[i] = b.Next(start + uint64(i))
	}
}

// NextArrival implements SparseArrivalProcess: off-period slots are
// consumed by bulk-decrementing the remaining-gap counter, with the
// same RNG consumption per state toggle as per-slot Next calls.
func (b *burstyArrivals) NextArrival(from, limit uint64) uint64 {
	for from < limit {
		for b.remaining == 0 {
			b.toggle()
		}
		if b.on {
			return from
		}
		k := min(uint64(b.remaining), limit-from)
		b.remaining -= int(k)
		from += k
	}
	return limit
}

// singleQueueArrivals floods one queue at full rate.
type singleQueueArrivals struct{ q pktbuf.Queue }

// NewSingleQueueArrivals floods queue q with one cell per slot.
func NewSingleQueueArrivals(q pktbuf.Queue) ArrivalProcess {
	return singleQueueArrivals{q: q}
}

func (s singleQueueArrivals) Next(uint64) pktbuf.Queue { return s.q }

// NextBatch implements BatchArrivalProcess. The process deliberately
// does not implement SparseArrivalProcess: a cell arrives every slot,
// so there is never anything to fast-forward and the batched path is
// strictly better.
func (s singleQueueArrivals) NextBatch(_ uint64, out []pktbuf.Queue) {
	for i := range out {
		out[i] = s.q
	}
}

// checkQueuesLoad validates the (queues, load) pair shared by the
// rate-shaped arrival constructors.
func checkQueuesLoad(q int, load float64) error {
	if q <= 0 {
		return fmt.Errorf("sim: queues must be positive, got %d: %w", q, pktbuf.ErrBadConfig)
	}
	if load < 0 || load > 1 {
		return fmt.Errorf("sim: load must be in [0,1], got %v: %w", load, pktbuf.ErrBadConfig)
	}
	return nil
}

// ---------------------------------------------------------------- requests

// roundRobinDrain is the paper's adversarial pattern: one cell per
// queue, cycling, skipping queues with nothing requestable.
type roundRobinDrain struct {
	q    int
	next int
}

// NewRoundRobinDrain returns the §3 adversarial request policy: one
// cell per queue, cycling, skipping queues with nothing requestable.
func NewRoundRobinDrain(q int) (RequestPolicy, error) {
	if q <= 0 {
		return nil, fmt.Errorf("sim: queues must be positive, got %d: %w", q, pktbuf.ErrBadConfig)
	}
	return &roundRobinDrain{q: q}, nil
}

func (r *roundRobinDrain) Next(_ uint64, v View) pktbuf.Queue {
	for i := 0; i < r.q; i++ {
		q := pktbuf.Queue((r.next + i) % r.q)
		if v.Requestable(q) > 0 {
			r.next = (int(q) + 1) % r.q
			return q
		}
	}
	return pktbuf.None
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
		return nil, fmt.Errorf("sim: queues must be positive, got %d: %w", q, pktbuf.ErrBadConfig)
	}
	if rate < 0 || rate > 1 {
		return nil, fmt.Errorf("sim: rate must be in [0,1], got %v: %w", rate, pktbuf.ErrBadConfig)
	}
	return &uniformRequests{q: q, rate: rate, rng: rand.New(rand.NewSource(seed))}, nil
}

func (u *uniformRequests) Next(_ uint64, v View) pktbuf.Queue {
	if u.rng.Float64() >= u.rate {
		return pktbuf.None
	}
	// Try a few random probes, then fall back to a scan.
	for i := 0; i < 4; i++ {
		q := pktbuf.Queue(u.rng.Intn(u.q))
		if v.Requestable(q) > 0 {
			return q
		}
	}
	start := u.rng.Intn(u.q)
	for i := 0; i < u.q; i++ {
		q := pktbuf.Queue((start + i) % u.q)
		if v.Requestable(q) > 0 {
			return q
		}
	}
	return pktbuf.None
}

// longestFirst always drains the longest queue — the opposite extreme
// of round-robin.
type longestFirst struct{ q int }

// NewLongestFirst returns a policy that requests the queue with the
// most requestable cells — the opposite extreme of round-robin.
func NewLongestFirst(q int) (RequestPolicy, error) {
	if q <= 0 {
		return nil, fmt.Errorf("sim: queues must be positive, got %d: %w", q, pktbuf.ErrBadConfig)
	}
	return &longestFirst{q: q}, nil
}

func (l *longestFirst) Next(_ uint64, v View) pktbuf.Queue {
	best, bestN := pktbuf.None, 0
	for q := 0; q < l.q; q++ {
		if n := v.Requestable(pktbuf.Queue(q)); n > bestN {
			best, bestN = pktbuf.Queue(q), n
		}
	}
	return best
}

// IdleStable implements StableRequestPolicy (the policy is stateless).
func (l *longestFirst) IdleStable() bool { return true }

// permutationDrain walks a fixed permutation, one cell per visit — a
// rotated variant of the adversarial pattern.
type permutationDrain struct {
	perm []pktbuf.Queue
	pos  int
}

// NewPermutationDrain cycles over the given queue permutation, one
// cell per visit — a rotated variant of the adversarial pattern.
func NewPermutationDrain(perm []pktbuf.Queue) (RequestPolicy, error) {
	if len(perm) == 0 {
		return nil, fmt.Errorf("sim: permutation must be non-empty: %w", pktbuf.ErrBadConfig)
	}
	return &permutationDrain{perm: append([]pktbuf.Queue(nil), perm...)}, nil
}

func (p *permutationDrain) Next(_ uint64, v View) pktbuf.Queue {
	for i := 0; i < len(p.perm); i++ {
		q := p.perm[(p.pos+i)%len(p.perm)]
		if v.Requestable(q) > 0 {
			p.pos = (p.pos + i + 1) % len(p.perm)
			return q
		}
	}
	return pktbuf.None
}

// IdleStable implements StableRequestPolicy: the walk is a pure
// function of the view and moves the cursor only when it requests.
func (p *permutationDrain) IdleStable() bool { return true }

// idleRequests never requests (fill-only phases).
type idleRequests struct{}

// NewIdleRequests returns a policy that never issues requests
// (fill-only phases).
func NewIdleRequests() RequestPolicy { return idleRequests{} }

func (idleRequests) Next(uint64, View) pktbuf.Queue { return pktbuf.None }

// IdleStable implements StableRequestPolicy (never any state).
func (idleRequests) IdleStable() bool { return true }
