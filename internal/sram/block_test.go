package sram

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/cell"
	"repro/internal/dram"
	"repro/internal/frame"
)

// TestOverflowKeepsPerCellSemantics: a block landing in a nearly full
// store keeps exactly the cells a per-cell insert would keep (the list
// inserts cell by cell, so it is the reference), a later landing of the
// same ordinal fills in the missing cells, and a CAM snapshot taken
// with a partly resident block restores to the same state.
func TestOverflowKeepsPerCellSemantics(t *testing.T) {
	stores, slab := newStores(t, 5, 2, 2)
	cam := stores[0].(*CAMStore)
	type step struct {
		ordinal  uint64 // land this block, or pop when pop is set
		pop      bool
		rejected int
		err      error
	}
	steps := []step{
		{ordinal: 0},
		{ordinal: 2},
		{ordinal: 1, rejected: 1, err: ErrFull}, // keeps position 2 only
		{pop: true}, {pop: true}, {pop: true},   // positions 0, 1, 2
		{pop: true, err: ErrMissing},                 // position 3 never landed
		{ordinal: 1, rejected: 1, err: ErrDuplicate}, // 2 popped, 3 fills in
		{pop: true}, {pop: true}, {pop: true}, // positions 3, 4, 5
		{ordinal: 1, rejected: 2, err: ErrDuplicate},
	}
	var snap []byte
	for i, st := range steps {
		if i == 4 {
			var buf bytes.Buffer
			w := frame.NewWriter(&buf)
			cam.Snapshot(w)
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
			snap = buf.Bytes()
			restored := NewCAM(slab, 5, 16)
			if err := restored.Restore(frame.NewReader(bytes.NewReader(snap))); err != nil {
				t.Fatalf("restore: %v", err)
			}
			var again bytes.Buffer
			w = frame.NewWriter(&again)
			restored.Snapshot(w)
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(snap, again.Bytes()) {
				t.Fatalf("restored CAM snapshots differently:\n%s\nvs\n%s", snap, again.Bytes())
			}
			stores = append(stores, restored)
		}
		for _, s := range stores {
			name := storeName(s)
			if st.pop {
				want := s.Total() > 0
				c, err := s.Pop(0)
				if !errors.Is(err, st.err) || (st.err == nil && !want) {
					t.Fatalf("step %d %s: pop = %v, %v; want err %v", i, name, c, err, st.err)
				}
				continue
			}
			n, err := land(s, slab, 0, 0, st.ordinal)
			if n != st.rejected || !errors.Is(err, st.err) || (st.err == nil && err != nil) {
				t.Fatalf("step %d %s: land %d = %d, %v; want %d, %v", i, name, st.ordinal, n, err, st.rejected, st.err)
			}
		}
		for _, s := range stores[1:] {
			if s.Total() != cam.Total() || s.HighWater() != cam.HighWater() {
				t.Fatalf("step %d: %s total/high water %d/%d, CAM %d/%d",
					i, storeName(s), s.Total(), s.HighWater(), cam.Total(), cam.HighWater())
			}
		}
	}
	if cam.Total() != 0 || len(cam.partial) != 0 {
		t.Errorf("CAM ends with %d cells and %d partial blocks, want none", cam.Total(), len(cam.partial))
	}
}

// TestCAMReleasesBlockAfterLastCell: the CAM hands a block's handle
// back to the slab when its last cell is popped, not before.
func TestCAMReleasesBlockAfterLastCell(t *testing.T) {
	slab := dram.NewSlab(2)
	s := NewCAM(slab, 0, 1)
	blk := slab.AcquireBlock()
	copy(slab.Cells(blk), []cell.Cell{{Seq: 0}, {Seq: 1}})
	if _, err := s.Land(0, 0, blk); err != nil {
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
