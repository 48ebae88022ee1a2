package dram

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"repro/internal/cell"
	"repro/internal/frame"
)

// TestSnapshotDerivesReadsDone: a queue's issued-read count is not
// kept; the snapshot derives rdone from the read cursor and the blocks
// still stored (a reserved read whose issue is pending keeps its block
// there). A restore re-snapshots to the same bytes and rejects an
// rdone its blocks contradict.
func TestSnapshotDerivesReadsDone(t *testing.T) {
	cfg := testConfig()
	cfg.Queues = 2
	d := New(cfg)
	p := cell.PhysQueueID(1)
	now := cell.Slot(0)
	for k := range 3 {
		if _, err := writeNext(d, p, mkBlock(d, cell.QueueID(p), uint64(2*k)), now); err != nil {
			t.Fatal(err)
		}
		now += 8
	}
	// Three reads reserved, the first two issued.
	for k := range 3 {
		o, _, blk, err := d.ReserveRead(p)
		if err != nil {
			t.Fatal(err)
		}
		if k < 2 {
			if _, err := d.BeginReadAt(p, o, blk, now); err != nil {
				t.Fatal(err)
			}
			if _, err := deliver(d, p, o, blk); err != nil {
				t.Fatal(err)
			}
			now += 8
		}
	}
	snap := func(d *DRAM) string {
		var b bytes.Buffer
		w := frame.NewWriter(&b)
		d.Snapshot(w)
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	// The pop cursor is the head SRAM's to frame; the list relinks
	// once it is set.
	restore := func(s string) (*DRAM, error) {
		r := New(cfg)
		if err := r.Restore(frame.NewReader(strings.NewReader(s)), 1<<20); err != nil {
			return r, err
		}
		r.SetPop(p, d.NextPop(p))
		return r, r.Relink(0)
	}
	s := snap(d)
	if !strings.Contains(s, "wres=3 rres=3 rdone=2 blocks=1") {
		t.Fatalf("snapshot does not derive rdone=2:\n%s", s)
	}
	r, err := restore(s)
	if err != nil {
		t.Fatal(err)
	}
	if again := snap(r); again != s {
		t.Fatalf("restored DRAM snapshots differently:\n%s\nvs\n%s", s, again)
	}
	if _, err := restore(strings.Replace(s, "rdone=2", "rdone=3", 1)); !errors.Is(err, frame.ErrFrame) {
		t.Errorf("rdone that disagrees with the blocks: err = %v, want frame.ErrFrame", err)
	}
}
