package dram_test

import (
	"testing"

	"repro/internal/cell"
	"repro/internal/dram"
	"repro/internal/sram"
)

// TestOneSlabTailDRAMHead: one slab serves the tail SRAM, the DRAM and
// the head SRAM. A block the tail takes when it stages b cells (a run:
// the queue and its first sequence number) moves through a DRAM write
// and read into a CAM head SRAM by handle, on its queue's list; the
// head releases it after its last cell, the tail's next staging reuses
// that handle, and once warm a full round trip allocates nothing.
func TestOneSlabTailDRAMHead(t *testing.T) {
	const b = 4
	d := dram.New(dram.Config{Banks: 8, BanksPerGroup: 4, AccessSlots: 8, BlockCells: b, Queues: 2})
	head := sram.NewCAM(d, 0)
	p := cell.PhysQueueID(1)
	now := cell.Slot(0)
	seq := uint64(0)
	var last dram.Block
	round := func() {
		// Tail: stage the b oldest unpromised cells as one run block.
		blk := d.AcquireBlock()
		d.SetCells(blk, cell.QueueID(p), seq)
		if last != dram.NoBlock && blk != last {
			t.Fatalf("tail took block %d, want %d released by the head", blk, last)
		}
		// DRAM: the write reservation links the handle into the
		// queue's list, and the read reservation names it again.
		o, _, err := d.ReserveWrite(p, blk)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := d.BeginWriteAt(p, o, blk, now); err != nil {
			t.Fatal(err)
		}
		now += 8
		o, _, got, err := d.ReserveRead(p)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := d.BeginReadAt(p, o, got, now); err != nil {
			t.Fatal(err)
		}
		now += 8
		if got != blk || d.Queue(got) != cell.QueueID(p) || d.Cell(got, b-1).Seq != seq+b-1 {
			t.Fatalf("DRAM read block %d (queue %d), want %d holding the staged run", got, d.Queue(got), blk)
		}
		// Head: land by handle, deliver every cell.
		if err := head.Land(p, o, got); err != nil {
			t.Fatalf("head land: %v", err)
		}
		for i := 0; i < b; i++ {
			c, err := head.Pop(p)
			if err != nil || c.Seq != seq {
				t.Fatalf("head pop = %v, %v; want seq %d", c, err, seq)
			}
			seq++
		}
		last = blk
	}
	round()
	round()
	if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
		t.Errorf("tail→DRAM→head round trip allocates %v times, want 0", allocs)
	}
}
