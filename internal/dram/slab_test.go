package dram

import (
	"runtime"
	"testing"

	"repro/internal/cell"
)

// TestSlabReusesHandles: a released handle is the next one acquired, so
// a steady stream of writes and reads cycles through a fixed set of
// blocks instead of growing the slab.
func TestSlabReusesHandles(t *testing.T) {
	d := New(testConfig())
	a, b := d.AcquireBlock(), d.AcquireBlock()
	if a == NoBlock || b == NoBlock || a == b {
		t.Fatalf("handles %d, %d: want two distinct live blocks", a, b)
	}
	d.ReleaseBlock(a)
	if got := d.AcquireBlock(); got != a {
		t.Errorf("after releasing %d, AcquireBlock = %d", a, got)
	}

	// Write and read one queue for many rounds: the read hands each
	// block back and the next write reuses it.
	p := cell.PhysQueueID(1)
	seen := map[Block]bool{}
	now := cell.Slot(0)
	for k := 0; k < 64; k++ {
		blk := mkBlock(d, cell.QueueID(p), uint64(2*k))
		seen[blk] = true
		if _, err := writeNext(d, p, blk, now); err != nil {
			t.Fatal(err)
		}
		now += 8
		if _, _, err := readNext(d, p, now); err != nil {
			t.Fatal(err)
		}
		now += 8
	}
	if len(seen) > 2 {
		t.Errorf("64 write/read rounds used %d distinct blocks, want ≤ 2", len(seen))
	}
}

// TestSlabZeroAlloc: once the slab and its free list have grown to the
// working set, write/read/land/pop cycles allocate nothing.
func TestSlabZeroAlloc(t *testing.T) {
	d := New(testConfig())
	p := cell.PhysQueueID(2)
	now := cell.Slot(0)
	b := uint64(d.BlockCells())
	cycle := func() {
		var ords [3]uint64
		for i := range ords {
			// Block ordinal k holds the seqs k·b … k·b+b−1.
			blk := d.AcquireBlock()
			d.SetCells(blk, cell.QueueID(p), d.NextPop(p)+uint64(i)*b)
			o, _, err := d.ReserveWrite(p, blk)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := d.BeginWriteAt(p, o, blk, now); err != nil {
				t.Fatal(err)
			}
			ords[i] = o
			now++
		}
		now += 8
		for range ords {
			o, _, blk, err := d.ReserveRead(p)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := d.BeginReadAt(p, o, blk, now); err != nil {
				t.Fatal(err)
			}
			if err := d.Land(p, o, blk); err != nil {
				t.Fatal(err)
			}
			for k := range b {
				if c, ok := d.Pop(p); !ok || c.Seq != o*b+k {
					t.Fatalf("block at ordinal %d pops %v, %v", o, c, ok)
				}
			}
			now++
		}
		now += 8
	}
	cycle() // warm: grow the slab and the free list
	if allocs := testing.AllocsPerRun(200, cycle); allocs != 0 {
		t.Errorf("write/read/land/pop cycle allocates %v times, want 0", allocs)
	}
}

// TestSlabChunksNeverMove: a live block keeps its record at the same
// address while the slab grows by many chunks around it.
func TestSlabChunksNeverMove(t *testing.T) {
	d := New(testConfig())
	live := mkBlock(d, 7, 100)
	addr := d.rec(live)
	for i := 0; i < 10*chunkBlocks; i++ {
		mkBlock(d, 1, uint64(i))
	}
	if len(d.chunks) < 10 {
		t.Fatalf("slab has %d chunks, want the test to grow it past 10", len(d.chunks))
	}
	if d.rec(live) != addr {
		t.Error("a live block moved when the slab grew")
	}
	if cells := cellsOf(d.Slab, live); cells[0] != (cell.Cell{Queue: 7, Seq: 100}) || cells[1] != (cell.Cell{Queue: 7, Seq: 101}) {
		t.Errorf("live block cells = %v after growth", cells)
	}
}

// TestSlabBytesPerBlock: a block is one 16-byte run record whatever
// its size b, allocated a chunk at a time. Growing a slab by 1 024
// blocks may allocate at most that plus a quarter for the chunk
// table's append slack.
func TestSlabBytesPerBlock(t *testing.T) {
	const n = 1024
	for _, b := range []int{1, 4, 32} {
		s := NewSlab(b)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range n {
			s.AcquireBlock()
		}
		runtime.ReadMemStats(&after)
		got := after.TotalAlloc - before.TotalAlloc
		if limit := uint64(n*16) * 5 / 4; got > limit {
			t.Errorf("growing %d blocks of %d cells allocated %d bytes, want ≤ %d", n, b, got, limit)
		}
		t.Logf("%d blocks of %d cells: %d bytes (%.1f per block)", n, b, got, float64(got)/n)
	}
}

// TestSlabFreeListIsLIFO: released handles are reused last released
// first, through the link each released record carries.
func TestSlabFreeListIsLIFO(t *testing.T) {
	s := NewSlab(4)
	a, b, c := s.AcquireBlock(), s.AcquireBlock(), s.AcquireBlock()
	s.ReleaseBlock(a)
	s.ReleaseBlock(c)
	s.ReleaseBlock(b)
	for _, want := range []Block{b, c, a, 4} {
		if got := s.AcquireBlock(); got != want {
			t.Fatalf("AcquireBlock = %d, want %d", got, want)
		}
	}
}
