package sram

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/cell"
	"repro/internal/dram"
)

// newStores returns one of each organization with identical logical
// parameters over one slab of blockCells-cell blocks, for running the
// same scenario against both.
func newStores(t *testing.T, capacity, blockCells, sublists int) ([]Store, *dram.Slab) {
	t.Helper()
	slab := dram.NewSlab(blockCells)
	ls, err := NewList(slab, capacity, sublists, 16)
	if err != nil {
		t.Fatal(err)
	}
	return []Store{NewCAM(slab, capacity, 16), ls}, slab
}

// land lands block ordinal of q holding queue cq's cells at their
// stream positions (Seq = position), as the DRAM would deliver it.
func land(s Store, slab *dram.Slab, q cell.PhysQueueID, cq cell.QueueID, ordinal uint64) (int, error) {
	blk := slab.AcquireBlock()
	cells := slab.Cells(blk)
	for i := range cells {
		cells[i] = cell.Cell{Queue: cq, Seq: ordinal*uint64(len(cells)) + uint64(i)}
	}
	return s.Land(q, ordinal, blk)
}

func TestInsertPopInOrder(t *testing.T) {
	stores, slab := newStores(t, 64, 2, 4)
	for _, s := range stores {
		name := storeName(s)
		q := cell.PhysQueueID(3)
		for o := uint64(0); o < 4; o++ {
			if _, err := land(s, slab, q, 3, o); err != nil {
				t.Fatalf("%s land %d: %v", name, o, err)
			}
		}
		if got := s.Len(q); got != 8 {
			t.Errorf("%s Len = %d, want 8", name, got)
		}
		for pos := uint64(0); pos < 8; pos++ {
			if !s.HasNext(q) {
				t.Fatalf("%s HasNext false at %d", name, pos)
			}
			c, err := s.Pop(q)
			if err != nil {
				t.Fatalf("%s pop %d: %v", name, pos, err)
			}
			if c.Seq != pos {
				t.Errorf("%s pop %d got seq %d", name, pos, c.Seq)
			}
		}
		if s.Total() != 0 {
			t.Errorf("%s Total = %d after draining", name, s.Total())
		}
		if s.HighWater() != 8 {
			t.Errorf("%s HighWater = %d, want 8", name, s.HighWater())
		}
	}
}

func storeName(s Store) string {
	switch s.(type) {
	case *CAMStore:
		return "CAM"
	case *ListStore:
		return "List"
	default:
		return "?"
	}
}

func TestOutOfOrderBlockInsert(t *testing.T) {
	// b=2, B/b=2: blocks 0,1,2,3 map to sublists 0,1,0,1. Delivering
	// block 1 (positions 2,3) before block 0 (positions 0,1) is legal
	// in both organizations (different banks).
	stores, slab := newStores(t, 64, 2, 2)
	for _, s := range stores {
		name := storeName(s)
		q := cell.PhysQueueID(0)
		if _, err := land(s, slab, q, 0, 1); err != nil {
			t.Fatalf("%s land block1: %v", name, err)
		}
		if s.HasNext(q) {
			t.Errorf("%s HasNext true before position 0 arrives", name)
		}
		if _, err := s.Pop(q); !errors.Is(err, ErrMissing) {
			t.Errorf("%s pop err = %v, want ErrMissing", name, err)
		}
		if _, err := land(s, slab, q, 0, 0); err != nil {
			t.Fatalf("%s land block0: %v", name, err)
		}
		for pos := uint64(0); pos < 4; pos++ {
			c, err := s.Pop(q)
			if err != nil || c.Seq != pos {
				t.Fatalf("%s pop %d = %v, %v", name, pos, c, err)
			}
		}
	}
}

func TestCapacityEnforced(t *testing.T) {
	stores, slab := newStores(t, 4, 1, 1)
	for _, s := range stores {
		name := storeName(s)
		for pos := uint64(0); pos < 4; pos++ {
			if _, err := land(s, slab, 0, 0, pos); err != nil {
				t.Fatalf("%s insert %d: %v", name, pos, err)
			}
		}
		if n, err := land(s, slab, 0, 0, 4); n != 1 || !errors.Is(err, ErrFull) {
			t.Errorf("%s overfull land = %d, %v; want 1, ErrFull", name, n, err)
		}
		// Freeing one slot admits one more.
		if _, err := s.Pop(0); err != nil {
			t.Fatal(err)
		}
		if _, err := land(s, slab, 0, 0, 4); err != nil {
			t.Errorf("%s insert after pop: %v", name, err)
		}
		if got := s.Cap(); got != 4 {
			t.Errorf("%s Cap = %d, want 4", name, got)
		}
	}
}

func TestDuplicateInsert(t *testing.T) {
	stores, slab := newStores(t, 16, 1, 2)
	for _, s := range stores {
		name := storeName(s)
		if _, err := land(s, slab, 1, 1, 0); err != nil {
			t.Fatal(err)
		}
		if n, err := land(s, slab, 1, 1, 0); n != 1 || !errors.Is(err, ErrDuplicate) {
			t.Errorf("%s duplicate land = %d, %v; want 1, ErrDuplicate", name, n, err)
		}
		// Re-landing an already-popped position is also a duplicate.
		if _, err := land(s, slab, 1, 1, 1); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Pop(1); err != nil {
			t.Fatal(err)
		}
		if n, err := land(s, slab, 1, 1, 0); n != 1 || !errors.Is(err, ErrDuplicate) {
			t.Errorf("%s popped-pos reland = %d, %v; want 1, ErrDuplicate", name, n, err)
		}
		if got := s.Total(); got != 1 {
			t.Errorf("%s Total = %d after duplicates, want 1", name, got)
		}
	}
}

func TestListRejectsWithinBankDisorder(t *testing.T) {
	// b=1, two sublists: positions 0,2,4.. in sublist 0. Inserting
	// position 4 then position 2 violates the bank FIFO discipline.
	ls, err := NewList(dram.NewSlab(1), 16, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := ls.Insert(0, 4, cell.Cell{Seq: 4}); err != nil {
		t.Fatal(err)
	}
	if err := ls.Insert(0, 2, cell.Cell{Seq: 2}); !errors.Is(err, ErrOrder) {
		t.Errorf("err = %v, want ErrOrder", err)
	}
}

func TestCAMAcceptsAnyOrder(t *testing.T) {
	// The CAM organization has no ordering discipline (§8.2 item i).
	slab := dram.NewSlab(1)
	s := NewCAM(slab, 16, 4)
	for _, pos := range []uint64{4, 2, 0, 3, 1} {
		if _, err := land(s, slab, 0, 0, pos); err != nil {
			t.Fatalf("land %d: %v", pos, err)
		}
	}
	for want := uint64(0); want < 5; want++ {
		c, err := s.Pop(0)
		if err != nil || c.Seq != want {
			t.Fatalf("pop = %v, %v; want seq %d", c, err, want)
		}
	}
}

func TestNewListValidation(t *testing.T) {
	cases := [][2]int{{0, 1}, {4, 0}, {-1, 1}}
	for _, c := range cases {
		if _, err := NewList(dram.NewSlab(1), c[0], c[1], 4); err == nil {
			t.Errorf("NewList(capacity %d, sublists %d) succeeded, want error", c[0], c[1])
		}
	}
	if _, err := NewList(nil, 4, 1, 4); err == nil {
		t.Error("NewList without a slab succeeded, want error")
	}
}

func TestMultiQueueIsolation(t *testing.T) {
	stores, slab := newStores(t, 64, 2, 2)
	for _, s := range stores {
		name := storeName(s)
		for q := cell.PhysQueueID(0); q < 4; q++ {
			for o := uint64(0); o < 2; o++ {
				if _, err := land(s, slab, q, cell.QueueID(q), o); err != nil {
					t.Fatal(err)
				}
			}
		}
		if got := s.Total(); got != 16 {
			t.Errorf("%s Total = %d, want 16", name, got)
		}
		// Draining one queue leaves the others intact and in order.
		for pos := uint64(0); pos < 4; pos++ {
			if _, err := s.Pop(2); err != nil {
				t.Fatal(err)
			}
		}
		if got := s.Len(2); got != 0 {
			t.Errorf("%s Len(2) = %d", name, got)
		}
		for q := cell.PhysQueueID(0); q < 4; q++ {
			if q == 2 {
				continue
			}
			if got := s.Len(q); got != 4 {
				t.Errorf("%s Len(%d) = %d, want 4", name, q, got)
			}
			c, ok := s.Peek(q)
			if !ok || c.Queue != cell.QueueID(q) || c.Seq != 0 {
				t.Errorf("%s Peek(%d) = %v, %v", name, q, c, ok)
			}
		}
	}
}

// TestEquivalenceCAMList drives both organizations with the same
// randomized — but bank-FIFO-respecting — block arrival and pop
// schedule and requires identical observable behaviour. This is the
// §8.2 claim that both designs implement the same buffer.
func TestEquivalenceCAMList(t *testing.T) {
	const (
		queues     = 5
		blockCell  = 2
		sublists   = 4
		blocksPerQ = 12
		capacity   = queues * blockCell * blocksPerQ
	)
	for seed := int64(1); seed <= 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		slab := dram.NewSlab(blockCell)
		cam := NewCAM(slab, capacity, queues)
		ls, err := NewList(slab, capacity, sublists, queues)
		if err != nil {
			t.Fatal(err)
		}

		// nextBlock[q][s] is the next block ordinal of queue q destined
		// for sublist s that has not yet been delivered.
		type key struct{ q, s int }
		nextBlock := make(map[key]uint64)
		remaining := make(map[key]int)
		var keys []key
		for q := 0; q < queues; q++ {
			for s := 0; s < sublists; s++ {
				k := key{q, s}
				nextBlock[k] = uint64(s)
				remaining[k] = blocksPerQ / sublists
				keys = append(keys, k)
			}
		}
		popped := make([]uint64, queues)
		totalOps := queues * blocksPerQ

		for done := 0; done < totalOps; {
			if rng.Intn(2) == 0 {
				// Deliver the next block of a random (queue, sublist).
				k := keys[rng.Intn(len(keys))]
				if remaining[k] == 0 {
					continue
				}
				blk := nextBlock[k]
				if _, err := land(cam, slab, cell.PhysQueueID(k.q), cell.QueueID(k.q), blk); err != nil {
					t.Fatalf("seed %d cam land: %v", seed, err)
				}
				if _, err := land(ls, slab, cell.PhysQueueID(k.q), cell.QueueID(k.q), blk); err != nil {
					t.Fatalf("seed %d list land: %v", seed, err)
				}
				nextBlock[k] = blk + uint64(sublists)
				remaining[k]--
				done++
			} else {
				// Pop from a random queue; both stores must agree on
				// availability and content.
				q := cell.PhysQueueID(rng.Intn(queues))
				if cam.HasNext(q) != ls.HasNext(q) {
					t.Fatalf("seed %d: HasNext(%d) disagree: cam=%v list=%v",
						seed, q, cam.HasNext(q), ls.HasNext(q))
				}
				if !cam.HasNext(q) {
					continue
				}
				c1, err1 := cam.Pop(q)
				c2, err2 := ls.Pop(q)
				if err1 != nil || err2 != nil {
					t.Fatalf("seed %d pops: %v / %v", seed, err1, err2)
				}
				if c1 != c2 {
					t.Fatalf("seed %d: pop mismatch %v vs %v", seed, c1, c2)
				}
				if c1.Seq != popped[q] {
					t.Fatalf("seed %d: queue %d delivered seq %d, want %d",
						seed, q, c1.Seq, popped[q])
				}
				popped[q]++
			}
			if cam.Total() != ls.Total() {
				t.Fatalf("seed %d: totals diverge %d vs %d", seed, cam.Total(), ls.Total())
			}
		}
	}
}

func TestListSlabReuse(t *testing.T) {
	// Churn through many more cells than the capacity to exercise the
	// free list.
	ls, err := NewList(dram.NewSlab(1), 8, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	for pos := uint64(0); pos < 1000; pos++ {
		if err := ls.Insert(0, pos, cell.Cell{Seq: pos}); err != nil {
			t.Fatalf("insert %d: %v", pos, err)
		}
		c, err := ls.Pop(0)
		if err != nil || c.Seq != pos {
			t.Fatalf("pop %d: %v %v", pos, c, err)
		}
	}
	if ls.Total() != 0 {
		t.Errorf("Total = %d", ls.Total())
	}
	if ls.HighWater() != 1 {
		t.Errorf("HighWater = %d, want 1", ls.HighWater())
	}
}
