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
		cells := slab.Cells(blk)
		for k := range cells {
			cells[k] = cell.Cell{Queue: cell.QueueID(q), Seq: o*benchB + uint64(k)}
		}
		if _, err := s.Land(q, o, blk); err != nil {
			b.Fatal(err)
		}
		for range cells {
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

// BenchmarkStorePartitioned measures the distributed organization,
// one cell at a time (it is not a Store).
func BenchmarkStorePartitioned(b *testing.B) {
	ps, err := NewPartitioned(benchQueues, 1024)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	pos := make([]uint64, benchQueues)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := cell.PhysQueueID(i % benchQueues)
		p := pos[q]
		pos[q]++
		if err := ps.Insert(q, p, cell.Cell{Queue: cell.QueueID(q), Seq: p}); err != nil {
			b.Fatal(err)
		}
		if _, err := ps.Pop(q); err != nil {
			b.Fatal(err)
		}
	}
}
