package main

import (
	"math"
	"math/bits"
	"sort"
)

// quantile returns the p-quantile (0 ≤ p ≤ 1) of xs by linear
// interpolation between order statistics; xs need not be sorted and is
// not modified. It returns 0 for an empty sample.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// quietShare is the share of a run's windows the estimator keeps: the
// quietest fifth. The host this benchmark was sized on flips between
// two speed modes ~75 % apart every few seconds and is at times
// disturbed for whole runs (README.md, "Estimator"), which makes a
// run's median window bimodal; interference only ever slows a window
// down, so the quiet windows are what the program does with the cores
// to itself, and they repeat across runs where the median does not.
const quietShare = 0.2

// quietLowest returns the median of the quietShare lowest of xs, for
// figures where lower means less disturbed (a duration per unit of
// fixed work).
func quietLowest(xs []float64) float64 {
	return quantile(xs, quietShare/2)
}

// quartiles returns the first, second and third quartile of xs the way
// Python's statistics.quantiles(xs, n=4) (method "exclusive") does —
// the spread rule the driver applies to ten runs of each workload.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	at := func(i int) float64 {
		// m = n+1 positions; cut point i of 4.
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// spreadShare is the interquartile range of xs as a share of their
// median.
func spreadShare(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}

// hist is a log-linear histogram of nanosecond durations: 64
// sub-buckets per power of two (≤ 1.6 % relative width), constant
// memory whatever the sample count, which is what lets every delivered
// cell be a latency sample at ~1 M cells/s.
type hist struct {
	counts [histBuckets]uint32
	n      uint64
	sumNS  int64
}

const (
	histSub     = 64 // sub-buckets per octave
	histSubBits = 6
	histOctaves = 36 // up to 2^41 ns ≈ 37 min
	histBuckets = histOctaves * histSub
)

func histIndex(ns int64) int {
	if ns < histSub {
		if ns < 0 {
			return 0
		}
		return int(ns)
	}
	e := bits.Len64(uint64(ns)) - 1 // ≥ histSubBits
	idx := (e-histSubBits+1)*histSub + int(uint64(ns)>>(e-histSubBits))&(histSub-1)
	if idx >= histBuckets {
		return histBuckets - 1
	}
	return idx
}

// histLower returns the smallest duration that lands in bucket idx.
func histLower(idx int) float64 {
	if idx < histSub {
		return float64(idx)
	}
	e := idx/histSub + histSubBits - 1
	sub := idx % histSub
	return math.Ldexp(float64(histSub+sub), e-histSubBits)
}

func (h *hist) add(ns int64) {
	h.counts[histIndex(ns)]++
	h.n++
	h.sumNS += ns
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.sumNS += o.sumNS
}

// mean returns the exact mean in nanoseconds (0 when empty).
func (h *hist) mean() float64 {
	if h.n == 0 {
		return 0
	}
	return float64(h.sumNS) / float64(h.n)
}

// quantile returns the p-quantile in nanoseconds, interpolating
// linearly inside the bucket that holds the rank.
func (h *hist) quantile(p float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := p * float64(h.n-1)
	cum := 0.0
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if rank < cum+float64(c) {
			lo, hi := histLower(i), histLower(i+1)
			return lo + (hi-lo)*(rank-cum+0.5)/float64(c)
		}
		cum += float64(c)
	}
	return histLower(histBuckets)
}
