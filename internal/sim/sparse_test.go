package sim

import (
	"testing"

	"repro/internal/cell"
)

// TestBernoulliMatchesPerSlot pins the generator itself: NextBatch and
// NextArrival must be slot-for-slot equivalent to per-slot Next calls.
func TestBernoulliMatchesPerSlot(t *testing.T) {
	mk := func() ArrivalProcess {
		a, err := NewBernoulliArrivals(8, 0.03, 99)
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	ref := mk()
	want := make([]cell.QueueID, 4096)
	for i := range want {
		want[i] = ref.Next(cell.Slot(i))
	}

	batch := mk().(BatchArrivalProcess)
	got := make([]cell.QueueID, len(want))
	batch.NextBatch(0, got[:1000])
	batch.NextBatch(1000, got[1000:])
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("NextBatch slot %d: %d, want %d", i, got[i], want[i])
		}
	}

	sparse := mk().(SparseArrivalProcess)
	slot := cell.Slot(0)
	for int(slot) < len(want) {
		next := sparse.NextArrival(slot, cell.Slot(len(want)))
		for s := slot; s < next; s++ {
			if want[s] != cell.NoQueue {
				t.Fatalf("NextArrival skipped an arrival at slot %d", s)
			}
		}
		if int(next) == len(want) {
			break
		}
		if q := sparse.Next(next); q != want[next] {
			t.Fatalf("arrival at slot %d: %d, want %d", next, q, want[next])
		}
		slot = next + 1
	}
}

// TestBurstyNextArrivalMatchesPerSlot does the same for the on/off
// process, whose gap counters are consumed rather than peeked.
func TestBurstyNextArrivalMatchesPerSlot(t *testing.T) {
	mk := func() ArrivalProcess {
		a, err := NewBurstyArrivals(8, 6, 120, 5)
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	ref := mk()
	want := make([]cell.QueueID, 8192)
	for i := range want {
		want[i] = ref.Next(cell.Slot(i))
	}

	sparse := mk().(SparseArrivalProcess)
	slot := cell.Slot(0)
	for int(slot) < len(want) {
		// Jump in bounded hops so mid-gap limits are exercised too.
		limit := slot + 97
		if int(limit) > len(want) {
			limit = cell.Slot(len(want))
		}
		next := sparse.NextArrival(slot, limit)
		for s := slot; s < next; s++ {
			if want[s] != cell.NoQueue {
				t.Fatalf("NextArrival skipped an arrival at slot %d", s)
			}
		}
		if next == limit {
			slot = limit
			continue
		}
		if q := sparse.Next(next); q != want[next] {
			t.Fatalf("arrival at slot %d: %d, want %d", next, q, want[next])
		}
		slot = next + 1
	}
}
