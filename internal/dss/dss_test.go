package dss

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/cell"
	"repro/internal/dram"
)

func req(q int, dir Direction, bank dram.BankID, at cell.Slot) Request {
	return Request{Queue: cell.PhysQueueID(q), Dir: dir, Bank: bank, Enqueued: at}
}

func TestEnqueueCapacity(t *testing.T) {
	s := New(2)
	if !s.CanEnqueue() {
		t.Fatal("fresh scheduler cannot enqueue")
	}
	if err := s.Enqueue(req(0, Read, 0, 0)); err != nil {
		t.Fatal(err)
	}
	if err := s.Enqueue(req(1, Read, 1, 0)); err != nil {
		t.Fatal(err)
	}
	if s.CanEnqueue() {
		t.Error("CanEnqueue true at capacity")
	}
	if err := s.Enqueue(req(2, Read, 2, 0)); !errors.Is(err, ErrRRFull) {
		t.Errorf("err = %v, want ErrRRFull", err)
	}
	if got := s.Stats().MaxOccupancy; got != 2 {
		t.Errorf("MaxOccupancy = %d, want 2", got)
	}
}

func TestZeroCapacityScheduler(t *testing.T) {
	s := New(0)
	if s.CanEnqueue() {
		t.Error("zero-capacity scheduler accepts requests")
	}
	if err := s.Enqueue(req(0, Read, 0, 0)); !errors.Is(err, ErrRRFull) {
		t.Errorf("err = %v", err)
	}
	s2 := New(-5)
	if s2.Capacity() != 0 {
		t.Errorf("negative capacity clamped to %d", s2.Capacity())
	}
}

func TestCycleOldestFirst(t *testing.T) {
	s := New(8)
	for i := 0; i < 3; i++ {
		if err := s.Enqueue(req(i, Read, dram.BankID(i), 0)); err != nil {
			t.Fatal(err)
		}
	}
	got := s.Cycle(0, 1, 4)
	if len(got) != 1 || got[0].Queue != 0 {
		t.Fatalf("Cycle issued %v, want oldest (queue 0)", got)
	}
}

func TestCycleSkipsLockedBank(t *testing.T) {
	s := New(8)
	// Request to bank 0 issues at slot 0, locking bank 0 for 4 slots.
	if err := s.Enqueue(req(0, Read, 0, 0)); err != nil {
		t.Fatal(err)
	}
	if n := len(s.Cycle(0, 1, 4)); n != 1 {
		t.Fatal("first issue failed")
	}
	// Two more requests: oldest targets the locked bank 0, younger
	// targets bank 1. The younger one must issue and the older one's
	// skip counter must increment.
	if err := s.Enqueue(req(1, Read, 0, 1)); err != nil {
		t.Fatal(err)
	}
	if err := s.Enqueue(req(2, Write, 1, 1)); err != nil {
		t.Fatal(err)
	}
	got := s.Cycle(2, 1, 4)
	if len(got) != 1 || got[0].Queue != 2 {
		t.Fatalf("Cycle = %v, want queue 2 (bank 1)", got)
	}
	// After the lock expires, the skipped request issues with Skips=1.
	got = s.Cycle(4, 1, 4)
	if len(got) != 1 || got[0].Queue != 1 || got[0].Skips != 1 {
		t.Fatalf("Cycle = %+v, want queue 1 with Skips=1", got)
	}
	if s.Stats().MaxSkips != 1 {
		t.Errorf("MaxSkips = %d, want 1", s.Stats().MaxSkips)
	}
}

func TestCycleAllLockedIdles(t *testing.T) {
	s := New(8)
	if err := s.Enqueue(req(0, Read, 3, 0)); err != nil {
		t.Fatal(err)
	}
	if n := len(s.Cycle(0, 1, 10)); n != 1 {
		t.Fatal("issue failed")
	}
	if err := s.Enqueue(req(1, Read, 3, 1)); err != nil {
		t.Fatal(err)
	}
	if got := s.Cycle(2, 1, 10); got != nil {
		t.Fatalf("Cycle = %v, want nil (bank locked)", got)
	}
	if s.Stats().IdleCycles != 1 {
		t.Errorf("IdleCycles = %d, want 1", s.Stats().IdleCycles)
	}
	// Empty cycles counted separately.
	s2 := New(4)
	s2.Cycle(0, 1, 4)
	if s2.Stats().EmptyCycles != 1 {
		t.Errorf("EmptyCycles = %d, want 1", s2.Stats().EmptyCycles)
	}
}

func TestCycleBudgetTwoDistinctBanks(t *testing.T) {
	s := New(8)
	if err := s.Enqueue(req(0, Read, 5, 0)); err != nil {
		t.Fatal(err)
	}
	if err := s.Enqueue(req(1, Write, 5, 0)); err != nil {
		t.Fatal(err)
	}
	if err := s.Enqueue(req(2, Write, 6, 0)); err != nil {
		t.Fatal(err)
	}
	got := s.Cycle(0, 2, 4)
	if len(got) != 2 || got[0].Queue != 0 || got[1].Queue != 2 {
		t.Fatalf("Cycle = %v, want queues 0 and 2 (same-bank pair split)", got)
	}
	// The same-cycle selection locked bank 5; queue 1 waits.
	if got := s.Cycle(2, 2, 4); got != nil {
		t.Fatalf("Cycle = %v, want nil", got)
	}
	got = s.Cycle(4, 2, 4)
	if len(got) != 1 || got[0].Queue != 1 {
		t.Fatalf("Cycle = %v, want queue 1", got)
	}
}

func TestORRExpiry(t *testing.T) {
	s := New(4)
	if err := s.Enqueue(req(0, Read, 2, 0)); err != nil {
		t.Fatal(err)
	}
	s.Cycle(0, 1, 8)
	if got := s.ORRLen(0); got != 1 {
		t.Errorf("ORRLen(0) = %d, want 1", got)
	}
	if got := s.ORRLen(7); got != 1 {
		t.Errorf("ORRLen(7) = %d, want 1", got)
	}
	if got := s.ORRLen(8); got != 0 {
		t.Errorf("ORRLen(8) = %d, want 0", got)
	}
}

func TestMaxDelayTracked(t *testing.T) {
	s := New(4)
	if err := s.Enqueue(req(0, Read, 0, 10)); err != nil {
		t.Fatal(err)
	}
	s.Cycle(25, 1, 4)
	if got := s.Stats().MaxDelaySlots; got != 15 {
		t.Errorf("MaxDelaySlots = %d, want 15", got)
	}
}

// TestConflictFreedomAgainstDRAM drives the scheduler against a real
// DRAM model with a block-cyclic request stream and verifies that no
// issued request ever hits a busy bank — the §5.3 guarantee.
func TestConflictFreedomAgainstDRAM(t *testing.T) {
	const (
		banks    = 16
		perGroup = 4
		access   = 8 // B slots
		blockB   = 2 // b
		queues   = 8 // physical queues, 2 per group
	)
	d := dram.New(dram.Config{
		Banks: banks, BanksPerGroup: perGroup, AccessSlots: access, BlockCells: blockB,
	})
	// Equation (1) with 2Q/G = 2·8/4 = 4 streams, B/b = 4: R = 16.
	s := New(16)
	rng := rand.New(rand.NewSource(42))

	pending := map[cell.PhysQueueID]uint64{} // write seq per queue
	cycle := 0
	for slot := cell.Slot(0); slot < 20000; slot += blockB {
		cycle++
		// MMA side: enqueue up to one write and one read request per
		// cycle, round-robining queues (an adversarial same-queue run
		// is exercised in the core tests).
		if s.CanEnqueue() {
			q := cell.PhysQueueID(rng.Intn(queues))
			seq := pending[q]
			blk := d.AcquireBlock()
			d.SetCells(blk, cell.QueueID(q), seq)
			ord, bank, err := d.ReserveWrite(q, blk)
			if err == nil {
				pending[q] = seq + 2
				if err := s.Enqueue(Request{
					Queue: q, Dir: Write, Ordinal: ord, Bank: bank,
					Block: blk, Enqueued: slot,
				}); err != nil {
					t.Fatalf("slot %d: %v", slot, err)
				}
			}
		}
		if s.CanEnqueue() && rng.Intn(2) == 0 {
			q := cell.PhysQueueID(rng.Intn(queues))
			if d.ReadableNow(q) {
				ord, bank, blk, err := d.ReserveRead(q)
				if err != nil {
					t.Fatalf("reserve read: %v", err)
				}
				if err := s.Enqueue(Request{
					Queue: q, Dir: Read, Ordinal: ord, Bank: bank, Block: blk, Enqueued: slot,
				}); err != nil {
					t.Fatalf("slot %d: %v", slot, err)
				}
			}
		}
		// DSA side: up to 2 issues per cycle. Any bank conflict
		// surfaces as an error from the DRAM model.
		for _, r := range s.Cycle(slot, 2, access) {
			switch r.Dir {
			case Write:
				if _, err := d.BeginWriteAt(r.Queue, r.Ordinal, r.Block, slot); err != nil {
					t.Fatalf("slot %d: conflict on write: %v", slot, err)
				}
			case Read:
				if _, err := d.BeginReadAt(r.Queue, r.Ordinal, r.Block, slot); err != nil {
					t.Fatalf("slot %d: conflict on read: %v", slot, err)
				}
				// Land the block and deliver every cell its queue now
				// has in order (reads of one queue may issue out of
				// order).
				if err := d.Land(r.Queue, r.Ordinal, r.Block); err != nil {
					t.Fatalf("slot %d: land: %v", slot, err)
				}
				for {
					if _, ok := d.Pop(r.Queue); !ok {
						break
					}
				}
			}
		}
	}
	st := s.Stats()
	if st.Issued == 0 {
		t.Fatal("nothing issued")
	}
	// Equation (2) scaled by the dual-issue budget:
	// β·Dmax = 2·(⌈2Q/G⌉−1)(B/b) = 2·3·4 = 24.
	if st.MaxSkips > 24 {
		t.Errorf("MaxSkips = %d exceeds β·Dmax = 24", st.MaxSkips)
	}
	t.Logf("issued=%d maxOcc=%d maxSkips=%d maxDelay=%d idle=%d",
		st.Issued, st.MaxOccupancy, st.MaxSkips, st.MaxDelaySlots, st.IdleCycles)
}

func TestDirectionString(t *testing.T) {
	if Read.String() != "read" || Write.String() != "write" {
		t.Error("unexpected Direction strings")
	}
}
