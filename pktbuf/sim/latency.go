package sim

import (
	"fmt"
	"slices"

	"repro/pktbuf"
)

// LatencyStats summarizes cell sojourn times (arrival slot → delivery
// slot). The paper's delay discussion (§7.2) is about exactly this
// quantity: the lookahead and latency registers put a floor under it.
type LatencyStats struct {
	// Count is the number of delivered cells measured.
	Count uint64
	// Min/Max/Mean are sojourn times in slots.
	Min, Max uint64
	Mean     float64
	// P50, P95, P99 are percentiles in slots.
	P50, P95, P99 uint64
}

// String implements fmt.Stringer.
func (l LatencyStats) String() string {
	return fmt.Sprintf("latency(slots): n=%d min=%d p50=%d mean=%.1f p95=%d p99=%d max=%d",
		l.Count, l.Min, l.P50, l.Mean, l.P95, l.P99, l.Max)
}

// LatencyTracker measures arrival→delivery sojourn per cell. It keys
// cells by (queue, seq), which the buffer guarantees unique and FIFO
// per queue; when attached to a buffer that already carries traffic,
// seed it with SeedNextSeq (see Runner.RunWithLatency, which does so
// automatically).
type LatencyTracker struct {
	arrivals map[pktbuf.Queue]uint64 // next seq per queue
	inFlight map[trackKey]uint64     // arrival slot per cell
	samples  []uint64
}

type trackKey struct {
	q   pktbuf.Queue
	seq uint64
}

// NewLatencyTracker returns an empty tracker.
func NewLatencyTracker() *LatencyTracker {
	return &LatencyTracker{
		arrivals: make(map[pktbuf.Queue]uint64),
		inFlight: make(map[trackKey]uint64),
	}
}

// SeedNextSeq aligns the tracker with a buffer that already carries
// traffic: the next arrival observed for q is keyed with the given
// sequence number (Buffer.ArrivedSeq). Deliveries of older, untracked
// cells are then skipped instead of mispairing with measured arrivals.
func (t *LatencyTracker) SeedNextSeq(q pktbuf.Queue, seq uint64) {
	t.arrivals[q] = seq
}

// OnArrival records a cell entering the buffer at slot now.
func (t *LatencyTracker) OnArrival(q pktbuf.Queue, now uint64) {
	seq := t.arrivals[q]
	t.arrivals[q] = seq + 1
	t.inFlight[trackKey{q, seq}] = now
}

// OnDeliver records a delivery and accumulates its sojourn.
func (t *LatencyTracker) OnDeliver(c pktbuf.Cell, now uint64) {
	k := trackKey{c.Queue, c.Seq}
	if at, ok := t.inFlight[k]; ok {
		t.samples = append(t.samples, now-at)
		delete(t.inFlight, k)
	}
}

// InFlight returns the number of cells arrived but not yet delivered.
func (t *LatencyTracker) InFlight() int { return len(t.inFlight) }

// Stats summarizes the collected samples.
func (t *LatencyTracker) Stats() LatencyStats {
	if len(t.samples) == 0 {
		return LatencyStats{}
	}
	s := slices.Clone(t.samples)
	slices.Sort(s)
	var sum float64
	for _, v := range s {
		sum += float64(v)
	}
	pct := func(p float64) uint64 { return s[int(p*float64(len(s)-1))] }
	return LatencyStats{
		Count: uint64(len(s)),
		Min:   s[0],
		Max:   s[len(s)-1],
		Mean:  sum / float64(len(s)),
		P50:   pct(0.50),
		P95:   pct(0.95),
		P99:   pct(0.99),
	}
}

// RunWithLatency runs the Runner for the given slots while measuring
// per-cell sojourn times. It is a convenience wrapper that installs
// the tracker around the runner's stimulus and delivery paths; cells
// already buffered when it starts are excluded from the samples.
func (r *Runner) RunWithLatency(slots uint64) (Result, LatencyStats, error) {
	if r.AllowDrops {
		// A dropped arrival consumes a tracker sequence number but not
		// a buffer one, desynchronizing the keying.
		return Result{}, LatencyStats{}, fmt.Errorf("sim: latency measurement requires AllowDrops=false: %w",
			pktbuf.ErrBadConfig)
	}
	tracker := NewLatencyTracker()
	buf := r.Buffer
	for q := 0; q < buf.Config().Queues; q++ {
		tracker.SeedNextSeq(pktbuf.Queue(q), buf.ArrivedSeq(pktbuf.Queue(q)))
	}
	prevDeliver := r.OnDeliver
	arr := r.Arrivals
	r.Arrivals = arrivalTap{inner: arr, tap: func(q pktbuf.Queue, now uint64) {
		if q != pktbuf.None {
			tracker.OnArrival(q, now)
		}
	}}
	r.OnDeliver = func(c pktbuf.Cell, bypassed bool) {
		// The callback fires after Tick has advanced the clock, so the
		// delivery slot is Now()-1 (arrivals are stamped pre-Tick).
		tracker.OnDeliver(c, buf.Now()-1)
		if prevDeliver != nil {
			prevDeliver(c, bypassed)
		}
	}
	defer func() {
		r.Arrivals = arr
		r.OnDeliver = prevDeliver
	}()
	res, err := r.Run(slots)
	return res, tracker.Stats(), err
}

// arrivalTap wraps an ArrivalProcess, observing each emission. It
// deliberately drops the batch fast path: RunWithLatency runs with
// batch size 1 so every arrival is observed in slot order.
type arrivalTap struct {
	inner ArrivalProcess
	tap   func(q pktbuf.Queue, now uint64)
}

func (a arrivalTap) Next(slot uint64) pktbuf.Queue {
	q := a.inner.Next(slot)
	a.tap(q, slot)
	return q
}
