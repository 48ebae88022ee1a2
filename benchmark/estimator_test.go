package main

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

func near(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestQuantileHandComputed(t *testing.T) {
	xs := []float64{40, 10, 30, 20} // sorted: 10 20 30 40
	for _, c := range []struct{ p, want float64 }{
		{0, 10}, {1, 40}, {0.5, 25}, {0.25, 17.5}, {0.10, 13}, {0.90, 37},
	} {
		if got := quantile(xs, c.p); !near(got, c.want, 1e-9) {
			t.Errorf("quantile(%v, %v) = %v, want %v", xs, c.p, got, c.want)
		}
	}
	if xs[0] != 40 {
		t.Error("quantile sorted its argument in place")
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of nothing = %v, want 0", got)
	}
	if got := quantile([]float64{7}, 0.1); got != 7 {
		t.Errorf("quantile of one sample = %v, want 7", got)
	}
}

// The pooled estimator: windows from every slice go into one pool, the
// quiet fifth by median latency is kept, throughput and CPU are
// medians over it and latencies come from its pooled samples.
func TestQuietWindowsPooled(t *testing.T) {
	mk := func(latNS int64, cells uint64, cpuNS int64) window {
		w := window{wallNS: 1e9, cells: cells, cpuNS: cpuNS, lat: new(hist)}
		for i := 0; i < 100; i++ {
			w.lat.add(latNS)
		}
		return w
	}
	// Ten windows over three slices; the two quietest have 100 µs and
	// 110 µs medians, the rest are disturbed (and, as on serve_paced,
	// burn less CPU per cell because they batch harder).
	var pool []window
	for _, slice := range [][]window{
		{mk(900e3, 500, 1e6), mk(100e3, 1000, 3e6), mk(800e3, 600, 1e6)},
		{mk(700e3, 600, 1e6), mk(600e3, 700, 1e6), mk(500e3, 700, 1e6), mk(400e3, 800, 1e6)},
		{mk(110e3, 980, 3e6), mk(300e3, 900, 1e6), mk(200e3, 900, 1e6)},
	} {
		pool = append(pool, slice...)
	}
	q := quietWindows(pool)
	if len(q) != 2 || q[0].cells != 1000 || q[1].cells != 980 {
		t.Fatalf("quiet windows = %+v, want the 100 µs and 110 µs ones", q)
	}
	e := endToEnd(pool, 7)
	if !near(e[mCellsPerS], 990, 1e-9) {
		t.Errorf("cells_per_s = %v, want the quiet windows' median 990", e[mCellsPerS])
	}
	if want := (3e6/1e3/1000 + 3e6/1e3/980) / 2; !near(e[mCPUPerCell], want, 1e-9) {
		t.Errorf("cpu_us_per_cell = %v, want %v: the quiet windows', not the lowest", e[mCPUPerCell], want)
	}
	if p50 := e[mLatencyP50]; p50 < 98 || p50 > 112 {
		t.Errorf("latency_p50_us = %v, want 100–110", p50)
	}
	if e[mMemMB] != 7 {
		t.Errorf("mem_mb = %v", e[mMemMB])
	}
	// A window with too few samples to have a median is not ranked.
	thin := window{wallNS: 1e9, cells: 5000, lat: new(hist)}
	thin.lat.add(1)
	if q := quietWindows(append(pool, thin)); q[0].cells == 5000 {
		t.Error("a window with one latency sample was ranked quietest")
	}
	// A bimodal run (host fast 60 % of the time) reports the fast mode.
	var bimodal []float64
	for i := 0; i < 60; i++ {
		bimodal = append(bimodal, 125)
	}
	for i := 0; i < 40; i++ {
		bimodal = append(bimodal, 220)
	}
	if got := quietLowest(bimodal); got != 125 {
		t.Errorf("quietLowest of a bimodal run = %v, want the fast mode 125", got)
	}
}

// quartiles must agree with Python's statistics.quantiles(xs, n=4),
// which is what the driver computes spreads with.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		// statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5},
		// statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
		{[]float64{10, 20}, 7.5, 15, 22.5},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if !near(q1, c.q1, 1e-9) || !near(q2, c.q2, 1e-9) || !near(q3, c.q3, 1e-9) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
	if got := spreadShare([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 1.0, 1e-9) {
		t.Errorf("spreadShare = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}

func TestHistBuckets(t *testing.T) {
	prev := -1
	for _, ns := range []int64{0, 1, 63, 64, 65, 127, 128, 1000, 1 << 20, 1<<40 + 12345} {
		i := histIndex(ns)
		if i < prev {
			t.Errorf("histIndex(%d) = %d, below the index of a smaller duration", ns, i)
		}
		prev = i
		if lo, hi := histLower(i), histLower(i+1); float64(ns) < lo || float64(ns) >= hi {
			t.Errorf("%d ns landed in bucket %d = [%v, %v)", ns, i, lo, hi)
		}
	}
	if got := histIndex(math.MaxInt64); got != histBuckets-1 {
		t.Errorf("huge duration landed in bucket %d, want the last", got)
	}
}

func TestHistQuantileTracksExact(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var h, half hist
	var exact []float64
	for i := 0; i < 200000; i++ {
		ns := int64(500e3 * math.Exp(rng.NormFloat64())) // log-normal around 0.5 ms
		exact = append(exact, float64(ns))
		if i%2 == 0 {
			h.add(ns)
		} else {
			half.add(ns)
		}
	}
	h.merge(&half)
	if h.n != uint64(len(exact)) {
		t.Fatalf("merged count %d, want %d", h.n, len(exact))
	}
	sort.Float64s(exact)
	for _, p := range []float64{0.5, 0.9, 0.99, 0.999} {
		want := quantile(exact, p)
		if got := h.quantile(p); math.Abs(got-want)/want > 0.02 {
			t.Errorf("hist p%v = %v, exact %v: off by more than a bucket", p*100, got, want)
		}
	}
	if (&hist{}).quantile(0.5) != 0 {
		t.Error("empty hist quantile != 0")
	}
}
