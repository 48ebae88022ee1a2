package mma

import (
	"fmt"
	"math"

	"repro/internal/cell"
	"repro/internal/frame"
)

// Snapshot/Restore serialize the MMA subsystem through the trace frame
// codec. Only the authoritative state is framed — the lookahead ring
// and the occupancy ledgers; every derived index (the ECQF window
// lists, critical slots and bitmap, the bucketed max-trackers, the
// epoch-stamped scratch) is rebuilt on restore from the authoritative
// state, exactly as the incremental maintenance would have left it.

// Snapshot writes the lookahead window's physical-queue requests. Owner
// tags are the owner's to frame (see Tag).
func (l *Lookahead) Snapshot(w *frame.Writer) {
	w.Begin("look")
	w.Attr("head", int64(l.head))
	w.Attr("count", int64(l.count))
	for i, q := range l.ring {
		if q >= 0 {
			w.Row(int64(i), int64(q))
		}
	}
}

// Restore loads a lookahead snapshot into a freshly constructed
// register of the same size. Callers restoring an observing ECQF must
// restore it after the lookahead, so its window index is rebuilt from
// the restored ring.
func (l *Lookahead) Restore(r *frame.Reader) error {
	if err := r.Expect("look"); err != nil {
		return err
	}
	head, err := r.NeedAttr("head")
	if err != nil {
		return err
	}
	count, err := r.NeedAttr("count")
	if err != nil {
		return err
	}
	if head < 0 || head >= int64(len(l.ring)) {
		return fmt.Errorf("%w: lookahead head %d of %d slots", frame.ErrFrame, head, len(l.ring))
	}
	if count < 0 || count > int64(len(l.ring)) {
		return fmt.Errorf("%w: lookahead holds %d of %d slots", frame.ErrFrame, count, len(l.ring))
	}
	l.head = int(head)
	for i := int64(0); i < count; i++ {
		row, err := r.NeedRow(2)
		if err != nil {
			return err
		}
		slot, q := row[0], row[1]
		if slot < 0 || slot >= int64(len(l.ring)) || l.ring[slot] != cell.NoPhysQueue || q < 0 || q > math.MaxInt32 {
			return fmt.Errorf("%w: lookahead slot %d request %d", frame.ErrFrame, slot, q)
		}
		l.ring[slot] = cell.PhysQueueID(q)
	}
	l.count = int(count)
	return nil
}

// snapshotOcc frames one occupancy ledger: rows of (queue, value) for
// the non-zero entries.
func snapshotOcc(w *frame.Writer, name string, occ []int32) {
	live := 0
	for _, v := range occ {
		if v != 0 {
			live++
		}
	}
	w.Begin(name)
	w.Attr("entries", int64(live))
	for q, v := range occ {
		if v != 0 {
			w.Row(int64(q), int64(v))
		}
	}
}

// restoreOcc loads a ledger written by snapshotOcc into a freshly
// constructed selector over queues queues; set is called once per
// restored entry.
func restoreOcc(r *frame.Reader, name string, queues int, set func(q cell.PhysQueueID, v int32)) error {
	if err := r.Expect(name); err != nil {
		return err
	}
	entries, err := r.NeedAttr("entries")
	if err != nil {
		return err
	}
	prev := int64(-1)
	for i := int64(0); i < entries; i++ {
		row, err := r.NeedRow(2)
		if err != nil {
			return err
		}
		// Rows come once per queue, in queue order.
		if row[0] <= prev || row[0] >= int64(queues) || row[1] < math.MinInt32 || row[1] > math.MaxInt32 {
			return fmt.Errorf("%w: %s ledger of queue %d is %d (%d queues)", frame.ErrFrame, name, row[0], row[1], queues)
		}
		set(cell.PhysQueueID(row[0]), int32(row[1]))
		prev = row[0]
	}
	return nil
}

// Snapshot writes the ECQF ledger. The window side of its index is the
// lookahead's content, framed separately.
func (e *ECQF) Snapshot(w *frame.Writer) {
	snapshotOcc(w, "ecqf", e.occ)
}

// Restore loads an ECQF snapshot and rebuilds the critical-slot index
// from the restored ledger and the (already restored) lookahead.
func (e *ECQF) Restore(r *frame.Reader) error {
	err := restoreOcc(r, "ecqf", len(e.occ), func(q cell.PhysQueueID, v int32) {
		e.occ[q] = v
	})
	if err != nil {
		return err
	}
	// Rebuild the per-queue window lists oldest-first (the head-to-tail
	// scan order), then walk each queue to its critical slot.
	e.look.Scan(func(i int, q cell.PhysQueueID) bool {
		if q >= 0 {
			e.ensure(q)
			slot := int32(e.look.head + i)
			if int(slot) >= len(e.look.ring) {
				slot -= int32(len(e.look.ring))
			}
			e.append(&e.win[q], slot)
		}
		return true
	})
	for q := range e.occ {
		e.recompute(cell.PhysQueueID(q))
	}
	return nil
}

// Snapshot writes the MDQF ledger.
func (m *MDQF) Snapshot(w *frame.Writer) {
	snapshotOcc(w, "mdqf", m.occ)
}

// Restore loads an MDQF snapshot, rebuilding the deficit buckets.
func (m *MDQF) Restore(r *frame.Reader) error {
	return restoreOcc(r, "mdqf", len(m.occ), func(q cell.PhysQueueID, v int32) {
		m.occ[q] = v
		m.idx.update(int(q), 0, deficit(v))
	})
}

// Snapshot writes the tail MMA ledger.
func (t *TailMMA) Snapshot(w *frame.Writer) {
	snapshotOcc(w, "tmma", t.occ)
}

// Restore loads a tail MMA snapshot, rebuilding the occupancy buckets.
func (t *TailMMA) Restore(r *frame.Reader) error {
	return restoreOcc(r, "tmma", len(t.occ), func(q cell.PhysQueueID, v int32) {
		lq := cell.QueueID(q)
		t.occ[lq] = v
		t.idx.update(int(lq), 0, v)
	})
}
