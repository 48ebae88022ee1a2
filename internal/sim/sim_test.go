package sim

import (
	"errors"
	"math"
	"testing"

	"repro/internal/cell"
	"repro/internal/core"
)

// fixedView implements View for generator-only tests.
type fixedView map[cell.QueueID]int

func (v fixedView) Requestable(q cell.QueueID) int { return v[q] }
func (v fixedView) Len(q cell.QueueID) int         { return v[q] }

func TestGeneratorValidation(t *testing.T) {
	// Every rejection wraps the configuration sentinel, so callers of
	// the public constructors dispatch on pktbuf.ErrBadConfig.
	check := func(err error, what string) {
		t.Helper()
		if err == nil {
			t.Errorf("%s accepted", what)
		} else if !errors.Is(err, core.ErrBadConfig) {
			t.Errorf("%s: %v does not wrap ErrBadConfig", what, err)
		}
	}
	_, err := NewUniformArrivals(0, 0.5, 1)
	check(err, "uniform q=0")
	_, err = NewUniformArrivals(4, 1.5, 1)
	check(err, "uniform load>1")
	_, err = NewBernoulliArrivals(0, 0.5, 1)
	check(err, "bernoulli q=0")
	_, err = NewBernoulliArrivals(4, -0.5, 1)
	check(err, "bernoulli negative load")
	_, err = NewRoundRobinArrivals(0, 0.5)
	check(err, "round-robin q=0")
	_, err = NewRoundRobinArrivals(4, -0.1)
	check(err, "round-robin negative load")
	_, err = NewHotspotArrivals(0, 0.5, 0.5, 1)
	check(err, "hotspot q=0")
	_, err = NewHotspotArrivals(4, 0.5, 2, 1)
	check(err, "hotspot hotFrac>1")
	_, err = NewBurstyArrivals(0, 4, 4, 1)
	check(err, "bursty q=0")
	_, err = NewBurstyArrivals(4, 0.5, 3, 1)
	check(err, "bursty meanOn<1")
	_, err = NewRoundRobinDrain(0)
	check(err, "round-robin drain q=0")
	_, err = NewUniformRequests(0, 0.5, 1)
	check(err, "uniform requests q=0")
	_, err = NewUniformRequests(4, 2, 1)
	check(err, "uniform requests rate>1")
	_, err = NewLongestFirst(0)
	check(err, "longest-first q=0")
	_, err = NewPermutationDrain(nil)
	check(err, "empty permutation")
}

func TestUniformArrivalsLoad(t *testing.T) {
	a, err := NewUniformArrivals(8, 0.6, 42)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	const slots = 100000
	for i := 0; i < slots; i++ {
		if a.Next(cell.Slot(i)) != cell.NoQueue {
			n++
		}
	}
	if got := float64(n) / slots; math.Abs(got-0.6) > 0.02 {
		t.Errorf("measured load %.3f, want 0.6", got)
	}
}

func TestRoundRobinArrivalsDeterministic(t *testing.T) {
	a, _ := NewRoundRobinArrivals(3, 1.0)
	want := []cell.QueueID{0, 1, 2, 0, 1, 2}
	for i, w := range want {
		if got := a.Next(cell.Slot(i)); got != w {
			t.Errorf("slot %d: %d, want %d", i, got, w)
		}
	}
	// Half load: every other slot idles.
	h, _ := NewRoundRobinArrivals(3, 0.5)
	idle, busy := 0, 0
	for i := 0; i < 1000; i++ {
		if h.Next(cell.Slot(i)) == cell.NoQueue {
			idle++
		} else {
			busy++
		}
	}
	if busy != 500 {
		t.Errorf("busy = %d, want 500", busy)
	}
	_ = idle
}

func TestHotspotSkew(t *testing.T) {
	a, _ := NewHotspotArrivals(8, 1.0, 0.9, 7)
	hot := 0
	const slots = 50000
	for i := 0; i < slots; i++ {
		if a.Next(cell.Slot(i)) == 0 {
			hot++
		}
	}
	if got := float64(hot) / slots; math.Abs(got-0.9) > 0.02 {
		t.Errorf("hot fraction %.3f, want 0.9", got)
	}
}

func TestBurstyArrivalsStructure(t *testing.T) {
	a, _ := NewBurstyArrivals(4, 10, 10, 3)
	busy := 0
	const slots = 100000
	prev := cell.NoQueue
	switches := 0
	for i := 0; i < slots; i++ {
		q := a.Next(cell.Slot(i))
		if q != cell.NoQueue {
			busy++
			if prev != cell.NoQueue && q != prev {
				switches++
			}
			prev = q
		}
	}
	if got := float64(busy) / slots; math.Abs(got-0.5) > 0.05 {
		t.Errorf("bursty load %.3f, want ≈0.5", got)
	}
	if switches == 0 {
		t.Error("bursts never switched queues")
	}
}

func TestRoundRobinDrainSkipsEmpty(t *testing.T) {
	p, _ := NewRoundRobinDrain(4)
	v := fixedView{1: 2, 3: 1}
	got := []cell.QueueID{
		p.Next(0, v), p.Next(1, v), p.Next(2, v),
	}
	if got[0] != 1 || got[1] != 3 || got[2] != 1 {
		t.Errorf("drain order = %v, want [1 3 1]", got)
	}
	empty := fixedView{}
	if q := p.Next(3, empty); q != cell.NoQueue {
		t.Errorf("empty view returned %d", q)
	}
}

func TestLongestFirst(t *testing.T) {
	p, _ := NewLongestFirst(4)
	if q := p.Next(0, fixedView{0: 1, 2: 5, 3: 2}); q != 2 {
		t.Errorf("got %d, want 2", q)
	}
	if q := p.Next(0, fixedView{}); q != cell.NoQueue {
		t.Errorf("got %d, want NoQueue", q)
	}
}

func TestPermutationDrain(t *testing.T) {
	p, _ := NewPermutationDrain([]cell.QueueID{2, 0, 1})
	v := fixedView{0: 5, 1: 5, 2: 5}
	got := []cell.QueueID{p.Next(0, v), p.Next(1, v), p.Next(2, v), p.Next(3, v)}
	want := []cell.QueueID{2, 0, 1, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("perm order = %v, want %v", got, want)
		}
	}
}

func TestRunBatchArrivalEquivalence(t *testing.T) {
	// The batched arrival fast path must be slot-for-slot identical to
	// per-slot Next calls.
	for _, mk := range []struct {
		name string
		make func() ArrivalProcess
	}{
		{"rr", func() ArrivalProcess { a, _ := NewRoundRobinArrivals(4, 0.7); return a }},
		{"uniform", func() ArrivalProcess { a, _ := NewUniformArrivals(4, 0.6, 3); return a }},
		{"single", func() ArrivalProcess { return NewSingleQueueArrivals(2) }},
	} {
		t.Run(mk.name, func(t *testing.T) {
			ref, batched := mk.make(), mk.make().(BatchArrivalProcess)
			got := make([]cell.QueueID, 257)
			batched.NextBatch(0, got)
			for i, g := range got {
				if want := ref.Next(cell.Slot(i)); g != want {
					t.Fatalf("slot %d: batch %d, per-slot %d", i, g, want)
				}
			}
		})
	}
}
