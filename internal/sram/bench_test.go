package sram

import (
	"testing"

	"repro/internal/cell"
	"repro/internal/dram"
)

const benchQueues, benchB = 64, 4

// benchStore measures the steady-state cost of landing one b-cell
// block and popping its cells.
func benchStore(b *testing.B, s Store, slab *dram.Slab) {
	b.Helper()
	b.ReportAllocs()
	ord := make([]uint64, benchQueues)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := cell.PhysQueueID(i % benchQueues)
		o := ord[q]
		ord[q]++
		blk := slab.AcquireBlock()
		slab.SetCells(blk, cell.QueueID(q), o*benchB)
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
	slab := dram.NewSlab(benchB)
	benchStore(b, NewCAM(slab, 1<<16, benchQueues), slab)
}

// BenchmarkStoreLinkedList measures the unified linked list.
func BenchmarkStoreLinkedList(b *testing.B) {
	slab := dram.NewSlab(benchB)
	ls, err := NewList(slab, 1<<16, 8, benchQueues)
	if err != nil {
		b.Fatal(err)
	}
	benchStore(b, ls, slab)
}
