package rename

import (
	"fmt"

	"repro/internal/cell"
	"repro/internal/frame"
)

// freeMark flags a free name in inUse while Restore loads the stacks.
const freeMark cell.QueueID = -2

// Snapshot serializes the renaming state through the trace frame
// codec: every register's live entries in head order, and each group's
// free-name stack verbatim. The stack order is semantic — names pop
// from the top, and recycled names land back there — so a restored
// table must hand out future names in exactly the sequence the
// original would have. The name→owner table is derived from the
// registers on restore.
func (t *Table) Snapshot(w *frame.Writer) {
	live, freeN := 0, 0
	for q := range t.regs {
		if t.regs[q].count > 0 {
			live++
		}
	}
	for _, names := range t.free {
		freeN += len(names)
	}
	w.Begin("rename")
	w.Attr("regs", int64(live))
	w.Attr("free", int64(freeN))
	w.Begin("rename-free")
	for g, names := range t.free {
		for _, p := range names { // bottom of the stack first
			w.Row(int64(g), int64(p))
		}
	}
	for q := range t.regs {
		r := &t.regs[q]
		if r.count == 0 {
			continue
		}
		w.Begin("rename-reg")
		w.Attr("q", int64(q))
		w.Attr("n", int64(r.count))
		for i := 0; i < r.count; i++ {
			e := r.at(i)
			w.Row(int64(e.phys), int64(e.count))
		}
	}
}

// Restore loads a snapshot written by Snapshot into a freshly
// constructed table of the same geometry serving queues logical
// queues, replacing its virgin free stacks with the recorded ones. Each
// name must be in range, in its group's stack, and either free or in
// one register, once.
func (t *Table) Restore(r *frame.Reader, queues int) error {
	if err := r.Expect("rename"); err != nil {
		return err
	}
	regs, err := r.NeedAttr("regs")
	if err != nil {
		return err
	}
	freeN, err := r.NeedAttr("free")
	if err != nil {
		return err
	}
	for g := range t.free {
		t.free[g] = t.free[g][:0]
	}
	for i := range t.inUse {
		t.inUse[i] = cell.NoQueue
	}
	if err := r.Expect("rename-free"); err != nil {
		return err
	}
	for i := int64(0); i < freeN; i++ {
		row, err := r.NeedRow(2)
		if err != nil {
			return err
		}
		g, p := row[0], row[1]
		if g < 0 || g >= int64(t.groups) || p < 0 || p >= int64(t.totalNames) || p%int64(t.groups) != g || t.inUse[p] != cell.NoQueue {
			return fmt.Errorf("%w: rename free name %d in group %d", frame.ErrFrame, p, g)
		}
		// Mark the name taken while the stacks load, so a second
		// appearance is caught; the registers below must not claim it.
		t.inUse[p] = freeMark
		t.free[g] = append(t.free[g], cell.PhysQueueID(p))
	}
	used := 0
	for i := int64(0); i < regs; i++ {
		if err := r.Expect("rename-reg"); err != nil {
			return err
		}
		q, err := r.NeedAttr("q")
		if err != nil {
			return err
		}
		n, err := r.NeedAttr("n")
		if err != nil {
			return err
		}
		if q < 0 || q >= int64(queues) || n < 0 || n > int64(t.capacity) {
			return fmt.Errorf("%w: rename register %d holds %d entries, capacity %d", frame.ErrFrame, q, n, t.capacity)
		}
		reg := t.reg(cell.QueueID(q))
		if reg.count != 0 {
			return fmt.Errorf("%w: rename register %d framed twice", frame.ErrFrame, q)
		}
		if reg.entries == nil {
			reg.entries = make([]entry, t.capacity)
		}
		// Ring phase is unobservable; normalize the restored register to
		// head 0 with the entries in head order.
		reg.head = 0
		reg.count = int(n)
		for j := 0; j < int(n); j++ {
			row, err := r.NeedRow(2)
			if err != nil {
				return err
			}
			if row[0] < 0 || row[0] >= int64(len(t.inUse)) || t.inUse[row[0]] != cell.NoQueue {
				return fmt.Errorf("%w: rename physical name %d out of range or taken", frame.ErrFrame, row[0])
			}
			p := cell.PhysQueueID(row[0])
			reg.entries[j] = entry{phys: p, count: int(row[1])}
			t.inUse[p] = cell.QueueID(q)
			used++
		}
	}
	if used+int(freeN) != t.totalNames {
		return fmt.Errorf("%w: rename names used %d + free %d != total %d", frame.ErrFrame, used, freeN, t.totalNames)
	}
	for _, names := range t.free {
		for _, p := range names {
			t.inUse[p] = cell.NoQueue
		}
	}
	return nil
}
