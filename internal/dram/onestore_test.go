package dram_test

import (
	"testing"

	"repro/internal/cell"
	"repro/internal/dram"
	"repro/internal/sram"
)

// TestOneSlabTailDRAMHead: one slab serves the tail SRAM, the DRAM and
// the head SRAM. A block written at the tail moves through a DRAM write
// and read into a CAM head SRAM by handle, with its cells at the same
// address throughout; the head releases it after its last cell, the
// tail's next block reuses that handle, and once warm a full round
// trip allocates nothing.
func TestOneSlabTailDRAMHead(t *testing.T) {
	const b = 4
	d := dram.New(dram.Config{Banks: 8, BanksPerGroup: 4, AccessSlots: 8, BlockCells: b, Queues: 2})
	head := sram.NewCAM(d.Slab, 0, 2)
	p := cell.PhysQueueID(1)
	now := cell.Slot(0)
	seq := uint64(0)
	var last dram.Block
	round := func() {
		// Tail: write b arriving cells into a fresh block.
		blk := d.AcquireBlock()
		cells := d.Cells(blk)
		addr := &cells[0]
		for i := range cells {
			cells[i] = cell.Cell{Queue: cell.QueueID(p), Seq: seq + uint64(i)}
		}
		if last != dram.NoBlock && blk != last {
			t.Fatalf("tail took block %d, want %d released by the head", blk, last)
		}
		// DRAM: the write takes the handle, the read hands it back.
		o, _, err := d.ReserveWrite(p)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := d.BeginWriteAt(p, o, blk, now); err != nil {
			t.Fatal(err)
		}
		now += 8
		if o, _, err = d.ReserveRead(p); err != nil {
			t.Fatal(err)
		}
		_, got, err := d.BeginReadAt(p, o, now)
		if err != nil {
			t.Fatal(err)
		}
		now += 8
		if got != blk || &d.Cells(got)[0] != addr {
			t.Fatalf("DRAM handed back block %d, want %d at the same address", got, blk)
		}
		// Head: land by handle, deliver every cell.
		if n, err := head.Land(p, o, got); n != 0 || err != nil {
			t.Fatalf("head land = %d, %v", n, err)
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
