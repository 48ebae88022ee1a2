package sram

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/dram"
	"repro/internal/frame"
)

// TestLandRefusesWholeBlock: a block that does not fit, or that names
// a resident or an already popped position, is refused whole — neither
// the store nor the block moves, and a refused block in flight lands
// on a later try — in the CAM and the list alike, and a CAM snapshot
// taken mid-block restores to the same state.
func TestLandRefusesWholeBlock(t *testing.T) {
	stores := newStores(t, 5, 2, 2)
	cam := stores[0]
	type step struct {
		ordinal uint64 // land this block, or pop when pop is set
		pop     bool
		err     error
	}
	steps := []step{
		{ordinal: 0}, {ordinal: 1},
		{ordinal: 2, err: ErrFull}, // 4 + 2 cells > 5
		{pop: true}, {pop: true},   // positions 0, 1
		{ordinal: 0, err: ErrDuplicate},       // popped
		{ordinal: 1, err: ErrDuplicate},       // resident
		{pop: true},                           // position 2
		{ordinal: 1, err: ErrDuplicate},       // partly popped
		{ordinal: 2},                          // the refused block, retried
		{pop: true}, {pop: true}, {pop: true}, // positions 3, 4, 5
		{pop: true, err: ErrMissing},
	}
	for i, st := range steps {
		if i == 8 {
			stores = append(stores, restoreCAM(t, cam))
		}
		for _, s := range stores {
			name := storeName(s.Store)
			if st.pop {
				c, err := s.Pop(0)
				if !errors.Is(err, st.err) || (st.err == nil && err != nil) {
					t.Fatalf("step %d %s: pop = %v, %v; want err %v", i, name, c, err, st.err)
				}
				continue
			}
			total, hw := s.Total(), s.HighWater()
			blk, err := s.land(0, 0, st.ordinal)
			if st.err != nil {
				requireRefused(t, s, total, hw, blk, err, st.err)
			} else if err != nil {
				t.Fatalf("step %d %s: land %d: %v", i, name, st.ordinal, err)
			}
		}
		for _, s := range stores[1:] {
			if s.Total() != cam.Total() || s.HighWater() != cam.HighWater() {
				t.Fatalf("step %d: %s total/high water %d/%d, CAM %d/%d",
					i, storeName(s.Store), s.Total(), s.HighWater(), cam.Total(), cam.HighWater())
			}
		}
	}
	if cam.Total() != 0 {
		t.Errorf("CAM ends with %d cells, want none", cam.Total())
	}
}

// restoreCAM snapshots a CAM rig's DRAM and store, restores both into
// a new rig, places the blocks the rig holds in flight (the engine's
// completion calendar frames those), relinks, and checks that the new
// rig snapshots to the same bytes.
func restoreCAM(t *testing.T, r *rig) *rig {
	t.Helper()
	snap := func(r *rig) []byte {
		var buf bytes.Buffer
		w := frame.NewWriter(&buf)
		r.Store.(*CAMStore).Snapshot(w)
		r.d.Snapshot(w)
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	before := snap(r)
	d := dram.New(r.d.Config())
	restored := newRig(NewCAM(d, r.Cap()), d)
	fr := frame.NewReader(bytes.NewReader(before))
	if err := restored.Store.(*CAMStore).Restore(fr, 1<<20); err != nil {
		t.Fatalf("restore: %v", err)
	}
	if err := d.Restore(fr, 1<<20); err != nil {
		t.Fatalf("restore: %v", err)
	}
	for k, blk := range r.blocks {
		if k.ordinal >= r.d.NextPop(k.q)/uint64(r.d.BlockCells()) && r.d.State(blk) == dram.InFlight {
			again, err := d.RestoreBlock(r.d.AppendCells(nil, blk))
			if err != nil {
				t.Fatal(err)
			}
			if err := d.Place(k.q, k.ordinal, again, dram.InFlight); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := d.Relink(0); err != nil {
		t.Fatalf("relink: %v", err)
	}
	// The new rig names each listed block by its new handle; a popped
	// ordinal names none.
	for q, n := range r.written {
		restored.written[q] = n
		for o := uint64(0); o < n; o++ {
			restored.blocks[rigKey{q, o}] = dram.NoBlock
		}
		d.EachBlock(q, func(o uint64, blk dram.Block, _ dram.State) { restored.blocks[rigKey{q, o}] = blk })
	}
	if after := snap(restored); !bytes.Equal(before, after) {
		t.Fatalf("restored CAM snapshots differently:\n%s\nvs\n%s", before, after)
	}
	return restored
}

// TestCAMReleasesBlockAfterLastCell: the CAM hands a block's handle
// back to the slab when its last cell is popped, not before.
func TestCAMReleasesBlockAfterLastCell(t *testing.T) {
	d := newDRAM(2, 1)
	s := newRig(NewCAM(d, 0), d)
	blk, err := s.land(0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Pop(0); err != nil {
		t.Fatal(err)
	}
	if got := s.d.AcquireBlock(); got == blk {
		t.Fatal("block released before its last cell was popped")
	}
	if c, err := s.Pop(0); err != nil || c.Seq != 1 {
		t.Fatalf("second pop = %v, %v", c, err)
	}
	if got := s.d.AcquireBlock(); got != blk {
		t.Errorf("after the last pop AcquireBlock = %d, want the released %d", got, blk)
	}
}

// TestLandRejectsUnknownHandle: a handle the slab never gave out is
// refused with dram.ErrBadBlock by both organizations, and a store
// with no room says ErrFull first.
func TestLandRejectsUnknownHandle(t *testing.T) {
	for _, s := range newStores(t, 2, 2, 2) {
		for _, blk := range []dram.Block{dram.NoBlock, -1, 999} {
			if err := s.Land(0, 0, blk); !errors.Is(err, dram.ErrBadBlock) {
				t.Errorf("%s land of handle %d = %v, want dram.ErrBadBlock", storeName(s.Store), blk, err)
			}
		}
		if _, err := s.land(0, 0, 0); err != nil {
			t.Fatal(err)
		}
		if err := s.Land(0, 1, 999); !errors.Is(err, ErrFull) {
			t.Errorf("%s land into a full store = %v, want ErrFull", storeName(s.Store), err)
		}
	}
}
