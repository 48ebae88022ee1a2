package dram

import (
	"errors"
	"testing"

	"repro/internal/cell"
)

// TestOutOfOrderSameQueueAccesses exercises the DSA-driven path:
// reservations in MMA order, issues in a different order.
func TestOutOfOrderSameQueueAccesses(t *testing.T) {
	d := New(testConfig()) // B/b banks per group = 4, access 8 slots
	p := cell.PhysQueueID(1)

	// Reserve three writes; banks follow the interleave 4,5,6.
	var ords []uint64
	var banks []BankID
	var blks []Block
	for i := 0; i < 3; i++ {
		blk := mkBlock(d, 1, uint64(2*i))
		o, b, err := d.ReserveWrite(p, blk)
		if err != nil {
			t.Fatal(err)
		}
		ords = append(ords, o)
		banks = append(banks, b)
		blks = append(blks, blk)
	}
	if banks[0] != 4 || banks[1] != 5 || banks[2] != 6 {
		t.Fatalf("reserved banks = %v", banks)
	}

	// Issue them out of order: 2, 0, 1 — different banks, same slot
	// window is fine.
	for _, i := range []int{2, 0, 1} {
		if _, err := d.BeginWriteAt(p, ords[i], blks[i], 0); err != nil {
			t.Fatalf("write ordinal %d: %v", ords[i], err)
		}
	}

	// Reads reserve in order 0,1,2 and may also issue out of order.
	var rords []uint64
	for i := 0; i < 3; i++ {
		o, b, blk, err := d.ReserveRead(p)
		if err != nil {
			t.Fatal(err)
		}
		if b != banks[i] || blk != blks[i] {
			t.Errorf("read %d bank, block = %d, %d, want %d, %d", i, b, blk, banks[i], blks[i])
		}
		rords = append(rords, o)
	}
	got := map[uint64][]cell.Cell{}
	for _, i := range []int{1, 2, 0} {
		if _, err := d.BeginReadAt(p, rords[i], blks[i], 20); err != nil {
			t.Fatalf("read ordinal %d: %v", rords[i], err)
		}
		got[rords[i]] = cellsOf(d.Slab, blks[i])
	}
	// Block k carries seqs 2k, 2k+1.
	for k := uint64(0); k < 3; k++ {
		cells := got[k]
		if len(cells) != 2 || cells[0].Seq != 2*k || cells[1].Seq != 2*k+1 {
			t.Errorf("block %d cells = %v", k, cells)
		}
	}
}

func TestReserveReadGatesOnIssuedWrite(t *testing.T) {
	d := New(testConfig())
	p := cell.PhysQueueID(0)
	b0, b1 := mkBlock(d, 0, 0), mkBlock(d, 0, 2)
	o0, _, err := d.ReserveWrite(p, b0)
	if err != nil {
		t.Fatal(err)
	}
	o1, _, err := d.ReserveWrite(p, b1)
	if err != nil {
		t.Fatal(err)
	}
	// Issue only the *second* write. The first block is still staged,
	// so no read can be reserved (FIFO order would be violated).
	if _, err := d.BeginWriteAt(p, o1, b1, 0); err != nil {
		t.Fatal(err)
	}
	if d.ReadableNow(p) {
		t.Error("ReadableNow true while block 0 write unissued")
	}
	if _, _, _, err := d.ReserveRead(p); !errors.Is(err, ErrQueueEmpty) {
		t.Errorf("ReserveRead err = %v, want ErrQueueEmpty", err)
	}
	if _, err := d.BeginWriteAt(p, o0, b0, 1); err != nil {
		t.Fatal(err)
	}
	if !d.ReadableNow(p) {
		t.Error("ReadableNow false after both writes issued")
	}
	if _, _, _, err := d.ReserveRead(p); err != nil {
		t.Errorf("ReserveRead after issue: %v", err)
	}
}

func TestBeginWriteAtValidation(t *testing.T) {
	d := New(testConfig())
	p := cell.PhysQueueID(0)
	blk := mkBlock(d, 0, 0)
	// Unreserved ordinal.
	if _, err := d.BeginWriteAt(p, 0, blk, 0); !errors.Is(err, ErrBadOrdinal) {
		t.Errorf("unreserved write err = %v", err)
	}
	o, _, err := d.ReserveWrite(p, blk)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.BeginWriteAt(p, o, NoBlock, 0); !errors.Is(err, ErrBadBlock) {
		t.Errorf("bad block err = %v", err)
	}
	// A block that was never reserved.
	if _, err := d.BeginWriteAt(p, o, mkBlock(d, 0, 0), 0); !errors.Is(err, ErrBadOrdinal) {
		t.Errorf("unstaged block err = %v", err)
	}
	if _, err := d.BeginWriteAt(p, o, blk, 0); err != nil {
		t.Fatal(err)
	}
	// Duplicate issue.
	if _, err := d.BeginWriteAt(p, o, blk, 100); !errors.Is(err, ErrBadOrdinal) {
		t.Errorf("duplicate write err = %v", err)
	}
	// A block already in a list cannot be reserved again.
	if _, _, err := d.ReserveWrite(p, blk); !errors.Is(err, ErrBadBlock) {
		t.Errorf("relinked block err = %v", err)
	}
}

func TestBeginReadAtValidation(t *testing.T) {
	d := New(testConfig())
	p := cell.PhysQueueID(0)
	blk := mkBlock(d, 0, 0)
	if _, err := writeNext(d, p, blk, 0); err != nil {
		t.Fatal(err)
	}
	// Unreserved read ordinal.
	if _, err := d.BeginReadAt(p, 0, blk, 50); !errors.Is(err, ErrBadOrdinal) {
		t.Errorf("unreserved read err = %v", err)
	}
	o, _, got, err := d.ReserveRead(p)
	if err != nil || got != blk {
		t.Fatalf("ReserveRead = block %d, %v; want %d", got, err, blk)
	}
	if _, err := d.BeginReadAt(p, o, NoBlock, 50); !errors.Is(err, ErrBadBlock) {
		t.Errorf("bad block err = %v", err)
	}
	// Landing before the read issues.
	if err := d.Land(p, o, blk); !errors.Is(err, ErrBadOrdinal) {
		t.Errorf("land of an unread block err = %v", err)
	}
	if _, err := d.BeginReadAt(p, o, blk, 50); err != nil {
		t.Fatal(err)
	}
	// Double read of the same ordinal.
	if _, err := d.BeginReadAt(p, o, blk, 100); !errors.Is(err, ErrBadOrdinal) {
		t.Errorf("double read err = %v", err)
	}
	// Popping before the block lands, landing twice, landing after the
	// last pop.
	if _, ok := d.Pop(p); ok {
		t.Error("Pop succeeded before the block landed")
	}
	if _, err := deliver(d, p, o, blk); err != nil {
		t.Fatal(err)
	}
	if err := d.Land(p, o, blk); !errors.Is(err, ErrBadOrdinal) {
		t.Errorf("land of a delivered block err = %v", err)
	}
}

func TestReserveWriteCapacity(t *testing.T) {
	d := New(testConfig()) // 16 blocks per group
	p := cell.PhysQueueID(0)
	for i := 0; i < 16; i++ {
		if _, _, err := d.ReserveWrite(p, mkBlock(d, 0, uint64(2*i))); err != nil {
			t.Fatalf("reserve %d: %v", i, err)
		}
	}
	if _, _, err := d.ReserveWrite(p, mkBlock(d, 0, 32)); !errors.Is(err, ErrGroupFull) {
		t.Errorf("over-reserve err = %v, want ErrGroupFull", err)
	}
	// Capacity is charged at reservation: occupancy reflects it.
	if got := d.GroupOccupancy(0); got != 16 {
		t.Errorf("GroupOccupancy = %d, want 16", got)
	}
}

// TestBeginWriteRollbackOnConflict: a write issued while its bank is
// still busy fails without side effects — the reservation keeps its
// ordinal and capacity charge, the block stays staged — and the same
// ordinal issues once the bank frees.
func TestBeginWriteRollbackOnConflict(t *testing.T) {
	d := New(testConfig())
	p := cell.PhysQueueID(0)
	if _, err := writeNext(d, p, mkBlock(d, 0, 0), 0); err != nil {
		t.Fatal(err)
	}
	// Ordinals 1..3 land on banks 1..3; ordinal 4 cycles back to bank 0,
	// which stays busy until slot 8.
	for i := 1; i <= 3; i++ {
		if _, err := writeNext(d, p, mkBlock(d, 0, uint64(2*i)), cell.Slot(i)); err != nil {
			t.Fatal(err)
		}
	}
	blk := mkBlock(d, 0, 8)
	o, bank, err := d.ReserveWrite(p, blk)
	if err != nil {
		t.Fatal(err)
	}
	before, accesses := d.GroupOccupancy(0), d.Accesses()
	if _, err := d.BeginWriteAt(p, o, blk, 4); !errors.Is(err, ErrBankConflict) {
		t.Fatalf("err = %v, want ErrBankConflict", err)
	}
	if got := d.GroupOccupancy(0); got != before {
		t.Errorf("occupancy moved on a failed issue: %d -> %d", before, got)
	}
	if d.Accesses() != accesses || !d.ReadableNow(p) {
		t.Error("failed issue touched the bank or the stored blocks")
	}
	// Retry after the bank frees succeeds with the same ordinal/bank.
	got, err := d.BeginWriteAt(p, o, blk, 8)
	if err != nil {
		t.Errorf("retry: %v", err)
	}
	if got != bank {
		t.Errorf("retry bank = %d, want the reserved %d", got, bank)
	}
}
