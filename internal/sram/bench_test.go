package sram

import (
	"testing"

	"repro/internal/cell"
	"repro/internal/dram"
)

const benchQueues, benchB = 64, 4

// benchStore measures the steady-state cost of landing one b-cell
// block and popping its cells (the DRAM write and read that put the
// block in flight included).
func benchStore(b *testing.B, s Store, d *dram.DRAM) {
	b.Helper()
	b.ReportAllocs()
	now := cell.Slot(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := cell.PhysQueueID(i % benchQueues)
		blk := d.AcquireBlock()
		d.SetCells(blk, cell.QueueID(q), d.NextPop(q))
		o, _, err := d.ReserveWrite(q, blk)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := d.BeginWriteAt(q, o, blk, now); err != nil {
			b.Fatal(err)
		}
		if _, _, _, err := d.ReserveRead(q); err != nil {
			b.Fatal(err)
		}
		if _, err := d.BeginReadAt(q, o, blk, now+1); err != nil {
			b.Fatal(err)
		}
		now += 2
		if err := s.Land(q, o, blk); err != nil {
			b.Fatal(err)
		}
		for range benchB {
			if _, err := s.Pop(q); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkStoreCAM measures the global CAM organization.
func BenchmarkStoreCAM(b *testing.B) {
	d := benchDRAM()
	benchStore(b, NewCAM(d, 1<<16), d)
}

// BenchmarkStoreLinkedList measures the unified linked list.
func BenchmarkStoreLinkedList(b *testing.B) {
	d := benchDRAM()
	ls, err := NewList(d, 1<<16, 8, benchQueues)
	if err != nil {
		b.Fatal(err)
	}
	benchStore(b, ls, d)
}

// benchDRAM is a DRAM whose banks are free again one slot after use.
func benchDRAM() *dram.DRAM {
	return dram.New(dram.Config{Banks: 64, BanksPerGroup: 8, AccessSlots: 1, BlockCells: benchB, Queues: benchQueues})
}
