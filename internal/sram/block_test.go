package sram

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/dram"
	"repro/internal/frame"
)

// TestLandRefusesWholeBlock: a block that does not fit, or that names
// a resident or an already popped position, is refused whole — the
// store does not move and the handle goes back to the slab — in the
// CAM and the list alike, and a CAM snapshot taken mid-block restores
// to the same state.
func TestLandRefusesWholeBlock(t *testing.T) {
	stores, slab := newStores(t, 5, 2, 2)
	cam := stores[0].(*CAMStore)
	type step struct {
		ordinal uint64 // land this block, or pop when pop is set
		pop     bool
		err     error
	}
	steps := []step{
		{ordinal: 0}, {ordinal: 1},
		{ordinal: 2, err: ErrFull}, // 4 + 2 cells > 5
		{pop: true}, {pop: true},   // positions 0, 1
		{ordinal: 0, err: ErrDuplicate}, // popped
		{ordinal: 1, err: ErrDuplicate}, // resident
		{pop: true},                     // position 2
		{ordinal: 1, err: ErrDuplicate}, // partly popped
		{ordinal: 2},
		{pop: true}, {pop: true}, {pop: true}, // positions 3, 4, 5
		{pop: true, err: ErrMissing},
	}
	for i, st := range steps {
		if i == 8 {
			var buf bytes.Buffer
			w := frame.NewWriter(&buf)
			cam.Snapshot(w)
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
			restored := NewCAM(slab, 5, 16)
			if err := restored.Restore(frame.NewReader(bytes.NewReader(buf.Bytes())), 1<<20); err != nil {
				t.Fatalf("restore: %v", err)
			}
			var again bytes.Buffer
			w = frame.NewWriter(&again)
			restored.Snapshot(w)
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf.Bytes(), again.Bytes()) {
				t.Fatalf("restored CAM snapshots differently:\n%s\nvs\n%s", buf.Bytes(), again.Bytes())
			}
			stores = append(stores, restored)
		}
		for _, s := range stores {
			name := storeName(s)
			if st.pop {
				c, err := s.Pop(0)
				if !errors.Is(err, st.err) || (st.err == nil && err != nil) {
					t.Fatalf("step %d %s: pop = %v, %v; want err %v", i, name, c, err, st.err)
				}
				continue
			}
			total, hw := s.Total(), s.HighWater()
			blk, err := land(s, slab, 0, 0, st.ordinal)
			if st.err != nil {
				requireRefused(t, s, slab, total, hw, blk, err, st.err)
			} else if err != nil {
				t.Fatalf("step %d %s: land %d: %v", i, name, st.ordinal, err)
			}
		}
		for _, s := range stores[1:] {
			if s.Total() != cam.Total() || s.HighWater() != cam.HighWater() {
				t.Fatalf("step %d: %s total/high water %d/%d, CAM %d/%d",
					i, storeName(s), s.Total(), s.HighWater(), cam.Total(), cam.HighWater())
			}
		}
	}
	if cam.Total() != 0 {
		t.Errorf("CAM ends with %d cells, want none", cam.Total())
	}
}

// TestCAMReleasesBlockAfterLastCell: the CAM hands a block's handle
// back to the slab when its last cell is popped, not before.
func TestCAMReleasesBlockAfterLastCell(t *testing.T) {
	slab := dram.NewSlab(2)
	s := NewCAM(slab, 0, 1)
	blk := slab.AcquireBlock()
	slab.SetCells(blk, 0, 0)
	if err := s.Land(0, 0, blk); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Pop(0); err != nil {
		t.Fatal(err)
	}
	if got := slab.AcquireBlock(); got == blk {
		t.Fatal("block released before its last cell was popped")
	}
	if c, err := s.Pop(0); err != nil || c.Seq != 1 {
		t.Fatalf("second pop = %v, %v", c, err)
	}
	if got := slab.AcquireBlock(); got != blk {
		t.Errorf("after the last pop AcquireBlock = %d, want the released %d", got, blk)
	}
}
