package dss

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/cell"
	"repro/internal/dram"
	"repro/internal/frame"
)

// banksDRAM is a DRAM of banks banks and 64 queues for the scheduler
// to address.
func banksDRAM(banks int) *dram.DRAM {
	return dram.New(dram.Config{Banks: banks, BanksPerGroup: 1, AccessSlots: 8, BlockCells: 2, Queues: 64})
}

// snapshotBytes frames s at slot now.
func snapshotBytes(t *testing.T, s *Scheduler, now cell.Slot) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := frame.NewWriter(&buf)
	s.Snapshot(w, now, banksDRAM(16))
	w.Begin("end")
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// withORRRows frames an empty-RR scheduler whose ORR section holds
// rows verbatim, as an older checkpoint may have written them.
func withORRRows(t *testing.T, rows [][2]int64) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := frame.NewWriter(&buf)
	w.Begin("dss")
	w.Attr("rr", 0)
	w.Attr("orr", int64(len(rows)))
	for _, k := range []string{"enqueued", "issued", "maxocc", "maxskips", "maxdelay", "idle", "empty"} {
		w.Attr(k, 0)
	}
	w.Begin("dss-orr")
	for _, r := range rows {
		w.Row(r[0], r[1])
	}
	w.Begin("end")
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestSnapshotWritesOnlyLiveLocks(t *testing.T) {
	s := New(4)
	for _, bank := range []int{2, 5} {
		if err := s.Enqueue(req(bank, Read, dram.BankID(bank), 0)); err != nil {
			t.Fatal(err)
		}
	}
	s.Cycle(0, 2, 8) // banks 2 and 5 locked until slot 8
	if err := s.Enqueue(req(7, Read, 7, 4)); err != nil {
		t.Fatal(err)
	}
	s.Cycle(4, 1, 8) // bank 7 locked until slot 12
	snap := snapshotBytes(t, s, 9)
	restored := New(4)
	if err := restored.Restore(frame.NewReader(bytes.NewReader(snap)), banksDRAM(16)); err != nil {
		t.Fatal(err)
	}
	// Banks 2 and 5 expired by slot 9: had their rows been written,
	// they would lock again at slot 0.
	if got := restored.ORRLen(0); got != 1 {
		t.Errorf("restored ORRLen(0) = %d, want 1: only bank 7's lock is live at the snapshot", got)
	}
	if !restored.locked(7, 11) || restored.locked(7, 12) || restored.locked(2, 9) {
		t.Error("restored locks differ from the live ones")
	}
	if again := snapshotBytes(t, restored, 9); !bytes.Equal(again, snap) {
		t.Errorf("re-snapshot differs:\n%s\nvs\n%s", again, snap)
	}
}

func TestRestoreAcceptsOlderORRRows(t *testing.T) {
	// An older checkpoint wrote the ORR list as it stood: expired locks
	// included, in issue order; a bank keeps its latest lock.
	s := New(4)
	snap := withORRRows(t, [][2]int64{{3, 20}, {4, 2}, {3, 5}})
	if err := s.Restore(frame.NewReader(bytes.NewReader(snap)), banksDRAM(8)); err != nil {
		t.Fatal(err)
	}
	if got := s.ORRLen(3); got != 1 {
		t.Errorf("ORRLen(3) = %d, want 1", got)
	}
	if !s.locked(3, 19) || s.locked(3, 20) || s.locked(4, 2) {
		t.Error("restored locks differ from the rows")
	}
	for _, bank := range []int64{-1, 8} {
		bad := withORRRows(t, [][2]int64{{bank, 20}})
		if err := New(4).Restore(frame.NewReader(bytes.NewReader(bad)), banksDRAM(8)); !errors.Is(err, frame.ErrFrame) {
			t.Errorf("bank %d: err = %v, want frame.ErrFrame", bank, err)
		}
	}
}
