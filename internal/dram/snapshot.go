package dram

import (
	"fmt"

	"repro/internal/cell"
	"repro/internal/frame"
)

// Snapshot serializes the DRAM occupancy and timing state through the
// trace frame codec: per-bank busy horizons, per-group block counts,
// per-queue reservation cursors and the stored blocks themselves. The
// geometry comes from the configuration the owner reconstructs; the
// readable bitset is derived state and is rebuilt on restore. Blocks
// are framed by their cells, never by handle: the slab layout and its
// free list are not part of the state.
func (d *DRAM) Snapshot(w *frame.Writer) {
	busy, groups, live := 0, 0, 0
	for _, until := range d.busyUntil {
		if until > 0 {
			busy++
		}
	}
	for _, n := range d.groupBlk {
		if n != 0 {
			groups++
		}
	}
	for p := range d.queues {
		q := &d.queues[p]
		if q.writeReserved > 0 || q.readReserved > 0 || q.readsDone > 0 {
			live++
		}
	}
	w.Begin("dram")
	w.Attr("accesses", int64(d.accesses))
	w.Attr("busyslots", int64(d.busySlots))
	w.Attr("banks", int64(busy))
	w.Attr("groups", int64(groups))
	w.Attr("queues", int64(live))
	w.Begin("dram-banks")
	for b, until := range d.busyUntil {
		if until > 0 {
			w.Row(int64(b), int64(until))
		}
	}
	w.Begin("dram-groups")
	for g, n := range d.groupBlk {
		if n != 0 {
			w.Row(int64(g), int64(n))
		}
	}
	for p := range d.queues {
		q := &d.queues[p]
		if q.writeReserved == 0 && q.readReserved == 0 && q.readsDone == 0 {
			continue
		}
		blocks := 0
		for o := q.ring.base; o < q.writeReserved; o++ {
			if q.ring.get(o) != NoBlock {
				blocks++
			}
		}
		w.Begin("dram-queue")
		w.Attr("q", int64(p))
		w.Attr("wres", int64(q.writeReserved))
		w.Attr("rres", int64(q.readReserved))
		w.Attr("rdone", int64(q.readsDone))
		w.Attr("blocks", int64(blocks))
		for o := q.ring.base; o < q.writeReserved; o++ {
			blk := q.ring.get(o)
			if blk == NoBlock {
				continue
			}
			row := make([]int64, 1, 1+2*d.cfg.BlockCells)
			row[0] = int64(o)
			w.Row(d.AppendCells(row, blk)...)
		}
	}
}

// Restore loads a snapshot written by Snapshot into a freshly
// constructed DRAM of the same configuration.
func (d *DRAM) Restore(r *frame.Reader) error {
	if err := r.Expect("dram"); err != nil {
		return err
	}
	accesses, err := r.NeedAttr("accesses")
	if err != nil {
		return err
	}
	busySlots, err := r.NeedAttr("busyslots")
	if err != nil {
		return err
	}
	banks, err := r.NeedAttr("banks")
	if err != nil {
		return err
	}
	groups, err := r.NeedAttr("groups")
	if err != nil {
		return err
	}
	queues, err := r.NeedAttr("queues")
	if err != nil {
		return err
	}
	d.accesses = uint64(accesses)
	d.busySlots = uint64(busySlots)
	if err := r.Expect("dram-banks"); err != nil {
		return err
	}
	for i := int64(0); i < banks; i++ {
		row, err := r.NeedRow(2)
		if err != nil {
			return err
		}
		b := int(row[0])
		if b < 0 || b >= len(d.busyUntil) {
			return fmt.Errorf("%w: dram bank %d out of range", frame.ErrFrame, b)
		}
		d.busyUntil[b] = cell.Slot(row[1])
	}
	if err := r.Expect("dram-groups"); err != nil {
		return err
	}
	for i := int64(0); i < groups; i++ {
		row, err := r.NeedRow(2)
		if err != nil {
			return err
		}
		g := int(row[0])
		if g < 0 || g >= len(d.groupBlk) {
			return fmt.Errorf("%w: dram group %d out of range", frame.ErrFrame, g)
		}
		d.groupBlk[g] = int(row[1])
	}
	for i := int64(0); i < queues; i++ {
		if err := r.Expect("dram-queue"); err != nil {
			return err
		}
		p, err := r.NeedAttr("q")
		if err != nil {
			return err
		}
		wres, err := r.NeedAttr("wres")
		if err != nil {
			return err
		}
		rres, err := r.NeedAttr("rres")
		if err != nil {
			return err
		}
		rdone, err := r.NeedAttr("rdone")
		if err != nil {
			return err
		}
		blocks, err := r.NeedAttr("blocks")
		if err != nil {
			return err
		}
		q := d.queue(cell.PhysQueueID(p))
		q.writeReserved = uint64(wres)
		q.readReserved = uint64(rres)
		q.readsDone = uint64(rdone)
		for j := int64(0); j < blocks; j++ {
			row, err := r.NeedRow(1 + 2*d.cfg.BlockCells)
			if err != nil {
				return err
			}
			q.ring.put(uint64(row[0]), d.RestoreBlock(row[1:]), q.readReserved)
		}
		d.refreshReadable(cell.PhysQueueID(p), q)
	}
	return nil
}
