package sram

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/cell"
	"repro/internal/dram"
)

// rig is a store over its own DRAM. Landing block ordinal o of a
// queue first writes and reads every block of that queue up to o, in
// order, so the block is in flight, as the DRAM would deliver it.
type rig struct {
	Store
	d       *dram.DRAM
	now     cell.Slot
	written map[cell.PhysQueueID]uint64
	blocks  map[rigKey]dram.Block
	// before is the state of the block the last land named, before
	// the landing.
	before dram.State
}

type rigKey struct {
	q       cell.PhysQueueID
	ordinal uint64
}

// newDRAM returns a DRAM of blockCells-cell blocks whose groups have
// sublists banks, for 16 queues.
func newDRAM(blockCells, sublists int) *dram.DRAM {
	return dram.New(dram.Config{Banks: 2 * sublists, BanksPerGroup: sublists, AccessSlots: 1, BlockCells: blockCells, Queues: 16})
}

func newRig(s Store, d *dram.DRAM) *rig {
	return &rig{Store: s, d: d, written: map[cell.PhysQueueID]uint64{}, blocks: map[rigKey]dram.Block{}}
}

// newStores returns one of each organization with identical logical
// parameters, each over its own DRAM of blockCells-cell blocks, for
// running the same scenario against both.
func newStores(t *testing.T, capacity, blockCells, sublists int) []*rig {
	t.Helper()
	cd, ld := newDRAM(blockCells, sublists), newDRAM(blockCells, sublists)
	ls, err := NewList(ld, capacity, sublists, 16)
	if err != nil {
		t.Fatal(err)
	}
	return []*rig{newRig(NewCAM(cd, capacity), cd), newRig(ls, ld)}
}

// land lands block ordinal of q holding queue cq's cells at their
// stream positions (Seq = position) and returns the block's handle
// with Land's error.
func (r *rig) land(q cell.PhysQueueID, cq cell.QueueID, ordinal uint64) (dram.Block, error) {
	b := uint64(r.d.BlockCells())
	for o := r.written[q]; o <= ordinal; o++ {
		blk := r.d.AcquireBlock()
		r.d.SetCells(blk, cq, o*b)
		if _, _, err := r.d.ReserveWrite(q, blk); err != nil {
			return blk, err
		}
		if _, err := r.d.BeginWriteAt(q, o, blk, r.now); err != nil {
			return blk, err
		}
		r.now++
		if _, _, _, err := r.d.ReserveRead(q); err != nil {
			return blk, err
		}
		if _, err := r.d.BeginReadAt(q, o, blk, r.now); err != nil {
			return blk, err
		}
		r.now++
		r.blocks[rigKey{q, o}] = blk
		r.written[q] = o + 1
	}
	blk := r.blocks[rigKey{q, ordinal}]
	if blk != dram.NoBlock {
		r.before = r.d.State(blk)
	}
	return blk, r.Land(q, ordinal, blk)
}

// requireRefused checks that a landing was refused whole with an error
// wrapping want: the store's Total and HighWater did not move, and
// neither did the block (a refused block in flight stays in flight in
// its queue's list). A popped ordinal of a restored rig names no block.
func requireRefused(t *testing.T, r *rig, total, hw int, blk dram.Block, err, want error) {
	t.Helper()
	name := storeName(r.Store)
	if !errors.Is(err, want) {
		t.Fatalf("%s land = %v, want %v", name, err, want)
	}
	if r.Total() != total || r.HighWater() != hw {
		t.Errorf("%s refused landing moved total/high water to %d/%d, want %d/%d", name, r.Total(), r.HighWater(), total, hw)
	}
	if blk == dram.NoBlock {
		return
	}
	if st := r.d.State(blk); st != r.before {
		t.Errorf("%s refused block %d moved from %v to %v", name, blk, r.before, st)
	}
}

func TestInsertPopInOrder(t *testing.T) {
	stores := newStores(t, 64, 2, 4)
	for _, s := range stores {
		name := storeName(s.Store)
		q := cell.PhysQueueID(3)
		for o := uint64(0); o < 4; o++ {
			if _, err := s.land(q, 3, o); err != nil {
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
	stores := newStores(t, 64, 2, 2)
	for _, s := range stores {
		name := storeName(s.Store)
		q := cell.PhysQueueID(0)
		if _, err := s.land(q, 0, 1); err != nil {
			t.Fatalf("%s land block1: %v", name, err)
		}
		if s.HasNext(q) {
			t.Errorf("%s HasNext true before position 0 arrives", name)
		}
		if _, err := s.Pop(q); !errors.Is(err, ErrMissing) {
			t.Errorf("%s pop err = %v, want ErrMissing", name, err)
		}
		if _, err := s.land(q, 0, 0); err != nil {
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
	stores := newStores(t, 4, 1, 1)
	for _, s := range stores {
		name := storeName(s.Store)
		for pos := uint64(0); pos < 4; pos++ {
			if _, err := s.land(0, 0, pos); err != nil {
				t.Fatalf("%s insert %d: %v", name, pos, err)
			}
		}
		blk, err := s.land(0, 0, 4)
		requireRefused(t, s, 4, 4, blk, err, ErrFull)
		// Freeing one slot admits one more.
		if _, err := s.Pop(0); err != nil {
			t.Fatal(err)
		}
		if _, err := s.land(0, 0, 4); err != nil {
			t.Errorf("%s insert after pop: %v", name, err)
		}
		if got := s.Cap(); got != 4 {
			t.Errorf("%s Cap = %d, want 4", name, got)
		}
	}
}

func TestDuplicateInsert(t *testing.T) {
	stores := newStores(t, 16, 1, 2)
	for _, s := range stores {
		name := storeName(s.Store)
		if _, err := s.land(1, 1, 0); err != nil {
			t.Fatal(err)
		}
		blk, err := s.land(1, 1, 0)
		requireRefused(t, s, 1, 1, blk, err, ErrDuplicate)
		// Re-landing an already-popped position is also a duplicate.
		if _, err := s.land(1, 1, 1); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Pop(1); err != nil {
			t.Fatal(err)
		}
		blk, err = s.land(1, 1, 0)
		requireRefused(t, s, 1, 2, blk, err, ErrDuplicate)
		if got := s.Total(); got != 1 {
			t.Errorf("%s Total = %d after duplicates, want 1", name, got)
		}
	}
}

func TestListRejectsWithinBankDisorder(t *testing.T) {
	// b=1, two sublists: positions 0,2,4.. in sublist 0. Landing
	// position 4 then position 2 violates the bank FIFO discipline; the
	// refused block stays in flight.
	r := newStores(t, 16, 1, 2)[1]
	if _, err := r.land(0, 0, 4); err != nil {
		t.Fatal(err)
	}
	blk, err := r.land(0, 0, 2)
	requireRefused(t, r, 1, 1, blk, err, ErrOrder)
}

func TestCAMAcceptsAnyOrder(t *testing.T) {
	// The CAM organization has no ordering discipline (§8.2 item i).
	d := newDRAM(1, 4)
	s := newRig(NewCAM(d, 16), d)
	for _, pos := range []uint64{4, 2, 0, 3, 1} {
		if _, err := s.land(0, 0, pos); err != nil {
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
		if _, err := NewList(newDRAM(1, 1), c[0], c[1], 4); err == nil {
			t.Errorf("NewList(capacity %d, sublists %d) succeeded, want error", c[0], c[1])
		}
	}
	if _, err := NewList(nil, 4, 1, 4); err == nil {
		t.Error("NewList without a DRAM succeeded, want error")
	}
}

func TestMultiQueueIsolation(t *testing.T) {
	stores := newStores(t, 64, 2, 2)
	for _, s := range stores {
		name := storeName(s.Store)
		for q := cell.PhysQueueID(0); q < 4; q++ {
			for o := uint64(0); o < 2; o++ {
				if _, err := s.land(q, cell.QueueID(q), o); err != nil {
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
		stores := newStores(t, capacity, blockCell, sublists)
		cam, ls := stores[0], stores[1]

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
				if _, err := cam.land(cell.PhysQueueID(k.q), cell.QueueID(k.q), blk); err != nil {
					t.Fatalf("seed %d cam land: %v", seed, err)
				}
				if _, err := ls.land(cell.PhysQueueID(k.q), cell.QueueID(k.q), blk); err != nil {
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
			if cam.Total() != ls.Total() || cam.HighWater() != ls.HighWater() {
				t.Fatalf("seed %d: total/high water diverge %d/%d vs %d/%d",
					seed, cam.Total(), cam.HighWater(), ls.Total(), ls.HighWater())
			}
		}
	}
}

func TestListSlabReuse(t *testing.T) {
	// Churn through many more blocks than the capacity: each block goes
	// back to the slab after its last pop, so the slab never grows past
	// the blocks resident at once.
	r := newStores(t, 8, 1, 1)[1]
	for pos := uint64(0); pos < 1000; pos++ {
		if _, err := r.land(0, 0, pos); err != nil {
			t.Fatalf("land %d: %v", pos, err)
		}
		c, err := r.Pop(0)
		if err != nil || c.Seq != pos {
			t.Fatalf("pop %d: %v %v", pos, c, err)
		}
	}
	if r.Total() != 0 {
		t.Errorf("Total = %d", r.Total())
	}
	if r.HighWater() != 1 {
		t.Errorf("HighWater = %d, want 1", r.HighWater())
	}
	if blk := r.d.AcquireBlock(); blk != 1 {
		t.Errorf("slab handed out block %d, want 1: popped blocks were not reused", blk)
	}
}
