package mma

import "repro/internal/bitset"

// posRing is a growable FIFO of lookahead ring slots for one queue's
// in-window requests, oldest first, with O(1) indexed access (the
// ECQF index addresses the k-th oldest request directly). Steady
// state never grows: capacity doubles on overflow, amortized.
type posRing struct {
	buf  []int32
	head int
	n    int
}

func (r *posRing) len() int { return r.n }

func (r *posRing) push(v int32) {
	if r.n == len(r.buf) {
		c := 2 * len(r.buf)
		if c < 4 {
			c = 4
		}
		nb := make([]int32, c)
		for i := 0; i < r.n; i++ {
			nb[i] = r.at(i)
		}
		r.buf, r.head = nb, 0
	}
	j := r.head + r.n
	if j >= len(r.buf) {
		j -= len(r.buf)
	}
	r.buf[j] = v
	r.n++
}

func (r *posRing) popFront() int32 {
	v := r.buf[r.head]
	r.head++
	if r.head == len(r.buf) {
		r.head = 0
	}
	r.n--
	return v
}

// at returns the i-th oldest element; i must be in [0, len()).
func (r *posRing) at(i int) int32 {
	j := r.head + i
	if j >= len(r.buf) {
		j -= len(r.buf)
	}
	return r.buf[j]
}

// maxTracker is the bucketed max index behind TailMMA and MDQF: each
// member queue with a positive tracked value (tail-SRAM occupancy,
// head-side deficit) sits in the hierarchical bitset of that exact
// value's bucket, and nonEmpty indexes the non-empty buckets, so
// "largest value first, ties to the lowest queue id" resolves in
// O(log₆₄) bitmap probes. Values at or above overflowAt share one
// overflow bucket whose winner is found by an exact scan of its
// members — the owner keeps the true values, so selections stay
// bit-identical to a full linear scan at any magnitude while the
// bucket arena stays O(overflowAt · Q/64) words. Values below
// minValue are not members at all, so a queue climbing towards the
// threshold touches no bitset.
type maxTracker struct {
	minValue   int32
	overflowAt int
	buckets    []*bitset.Set // [1, overflowAt]; index overflowAt = overflow
	nonEmpty   *bitset.Set   // over bucket indices
	members    int           // capacity for lazily allocated buckets
}

// newMaxTracker builds a tracker for members queues whose candidacy
// threshold is minValue (values below it are not tracked; the overflow
// boundary is kept above it so overflow members always qualify).
// minValue must be positive.
func newMaxTracker(members, minValue int) *maxTracker {
	overflowAt := 64
	if overflowAt < minValue {
		overflowAt = minValue
	}
	return &maxTracker{
		minValue:   int32(minValue),
		overflowAt: overflowAt,
		buckets:    make([]*bitset.Set, overflowAt+1),
		nonEmpty:   bitset.New(overflowAt + 1),
		members:    members,
	}
}

func (t *maxTracker) bucketOf(v int32) int {
	if v < t.minValue {
		return -1
	}
	if int(v) >= t.overflowAt {
		return t.overflowAt
	}
	return int(v)
}

// update moves queue q from tracked value oldV to tracked value newV.
// Values below minValue mean "not a member".
func (t *maxTracker) update(q int, oldV, newV int32) {
	if q >= t.members {
		t.members = q + 1
	}
	ob, nb := t.bucketOf(oldV), t.bucketOf(newV)
	if ob == nb {
		return
	}
	if ob >= 0 {
		set := t.buckets[ob]
		set.Clear(q)
		if set.Empty() {
			t.nonEmpty.Clear(ob)
		}
	}
	if nb >= 0 {
		set := t.buckets[nb]
		if set == nil {
			set = bitset.New(t.members)
			t.buckets[nb] = set
		} else if q >= set.Len() {
			set.Grow(t.members)
		}
		if set.Empty() {
			t.nonEmpty.Set(nb)
		}
		set.Set(q)
	}
}
