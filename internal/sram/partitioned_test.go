package sram

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/cell"
	"repro/internal/dram"
)

func TestNewPartitionedValidation(t *testing.T) {
	if _, err := NewPartitioned(0, 4); err == nil {
		t.Error("queues=0 accepted")
	}
	if _, err := NewPartitioned(4, 0); err == nil {
		t.Error("perQueue=0 accepted")
	}
	p, err := NewPartitioned(4, 8)
	if err != nil {
		t.Fatal(err)
	}
	if p.Cap() != 32 || p.PerQueue() != 8 {
		t.Errorf("Cap=%d PerQueue=%d", p.Cap(), p.PerQueue())
	}
}

func TestPartitionedBasicFIFO(t *testing.T) {
	s, _ := NewPartitioned(2, 4)
	for pos := uint64(0); pos < 4; pos++ {
		if err := s.Insert(1, pos, cell.Cell{Queue: 1, Seq: pos}); err != nil {
			t.Fatal(err)
		}
	}
	for pos := uint64(0); pos < 4; pos++ {
		c, err := s.Pop(1)
		if err != nil || c.Seq != pos {
			t.Fatalf("pop %d = %v, %v", pos, c, err)
		}
	}
	if s.Total() != 0 || s.HighWater() != 4 {
		t.Errorf("Total=%d HighWater=%d", s.Total(), s.HighWater())
	}
}

func TestPartitionedIsolationCost(t *testing.T) {
	// The §7.1 point: one hot queue overflows its partition while the
	// array is otherwise empty; a shared store of identical total
	// capacity absorbs the same burst.
	const queues, perQueue = 4, 4
	part, _ := NewPartitioned(queues, perQueue)
	slab := dram.NewSlab(1)
	shared := NewCAM(slab, queues*perQueue, queues)

	var partErr error
	accepted := 0
	for pos := uint64(0); pos < queues*perQueue; pos++ {
		c := cell.Cell{Queue: 0, Seq: pos}
		if _, err := land(shared, slab, 0, 0, pos); err != nil {
			t.Fatalf("shared store rejected cell %d: %v", pos, err)
		}
		if partErr == nil {
			if partErr = part.Insert(0, pos, c); partErr == nil {
				accepted++
			}
		}
	}
	if !errors.Is(partErr, ErrFull) {
		t.Fatalf("partitioned err = %v, want ErrFull", partErr)
	}
	if accepted != perQueue {
		t.Errorf("partitioned accepted %d, want %d (its share)", accepted, perQueue)
	}
}

func TestPartitionedWindowWraps(t *testing.T) {
	// The circular buffer reuses slots as the window advances.
	s, _ := NewPartitioned(1, 2)
	for pos := uint64(0); pos < 100; pos++ {
		if err := s.Insert(0, pos, cell.Cell{Seq: pos}); err != nil {
			t.Fatalf("insert %d: %v", pos, err)
		}
		c, err := s.Pop(0)
		if err != nil || c.Seq != pos {
			t.Fatalf("pop %d: %v %v", pos, c, err)
		}
	}
}

func TestPartitionedOutOfOrderWithinWindow(t *testing.T) {
	s, _ := NewPartitioned(1, 4)
	// Insert 2,3 then 0,1 — all inside the window of 4.
	for _, pos := range []uint64{2, 3} {
		if err := s.Insert(0, pos, cell.Cell{Seq: pos}); err != nil {
			t.Fatal(err)
		}
	}
	if s.HasNext(0) {
		t.Error("HasNext before pos 0")
	}
	if _, err := s.Pop(0); !errors.Is(err, ErrMissing) {
		t.Errorf("err = %v", err)
	}
	for _, pos := range []uint64{0, 1} {
		if err := s.Insert(0, pos, cell.Cell{Seq: pos}); err != nil {
			t.Fatal(err)
		}
	}
	for pos := uint64(0); pos < 4; pos++ {
		c, err := s.Pop(0)
		if err != nil || c.Seq != pos {
			t.Fatalf("pop %d: %v %v", pos, c, err)
		}
	}
}

func TestPartitionedDuplicateAndStale(t *testing.T) {
	s, _ := NewPartitioned(1, 4)
	if err := s.Insert(0, 1, cell.Cell{Seq: 1}); err != nil {
		t.Fatal(err)
	}
	if err := s.Insert(0, 1, cell.Cell{Seq: 1}); !errors.Is(err, ErrDuplicate) {
		t.Errorf("dup err = %v", err)
	}
	if err := s.Insert(0, 0, cell.Cell{Seq: 0}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Pop(0); err != nil {
		t.Fatal(err)
	}
	if err := s.Insert(0, 0, cell.Cell{}); !errors.Is(err, ErrDuplicate) {
		t.Errorf("stale err = %v", err)
	}
}

// TestPartitionedEquivalenceWithCAM: within per-queue windows, the
// partitioned store behaves exactly like the shared CAM.
func TestPartitionedEquivalenceWithCAM(t *testing.T) {
	const queues, perQueue = 3, 4
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		part, _ := NewPartitioned(queues, perQueue)
		slab := dram.NewSlab(1)
		cam := NewCAM(slab, queues*perQueue, queues)
		inserted := make([]uint64, queues)
		popped := make([]uint64, queues)
		for op := 0; op < 400; op++ {
			q := cell.PhysQueueID(rng.Intn(queues))
			if rng.Intn(2) == 0 && inserted[q] < popped[q]+uint64(perQueue) {
				pos := inserted[q]
				inserted[q]++
				c := cell.Cell{Queue: cell.QueueID(q), Seq: pos}
				if err := part.Insert(q, pos, c); err != nil {
					t.Fatalf("seed %d: part insert: %v", seed, err)
				}
				if _, err := land(cam, slab, q, cell.QueueID(q), pos); err != nil {
					t.Fatalf("seed %d: cam insert: %v", seed, err)
				}
			} else {
				if part.HasNext(q) != cam.HasNext(q) {
					t.Fatalf("seed %d: HasNext diverges", seed)
				}
				if !part.HasNext(q) {
					continue
				}
				c1, e1 := part.Pop(q)
				c2, e2 := cam.Pop(q)
				if e1 != nil || e2 != nil || c1 != c2 {
					t.Fatalf("seed %d: pops diverge: %v/%v %v/%v", seed, c1, e1, c2, e2)
				}
				popped[q]++
			}
			if part.Total() != cam.Total() {
				t.Fatalf("seed %d: totals diverge", seed)
			}
		}
	}
}
