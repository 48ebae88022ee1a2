package dss

import (
	"fmt"

	"repro/internal/cell"
	"repro/internal/dram"
	"repro/internal/frame"
)

// Snapshot serializes the scheduler through the trace frame codec: the
// age-ordered Requests Register verbatim (including staged write
// payloads, whose cells it reads from d's block slab; a read's block
// is framed by the DRAM), the ORR bank
// locks live at slot now (no later Cycle may run before now, so expired
// ones are dropped), and the accumulated statistics. The reusable issue
// buffer is scratch and is not framed.
func (s *Scheduler) Snapshot(w *frame.Writer, now cell.Slot, d *dram.DRAM) {
	w.Begin("dss")
	w.Attr("rr", int64(len(s.rr)))
	w.Attr("orr", int64(s.ORRLen(now)))
	w.Attr("enqueued", int64(s.stats.Enqueued))
	w.Attr("issued", int64(s.stats.Issued))
	w.Attr("maxocc", int64(s.stats.MaxOccupancy))
	w.Attr("maxskips", int64(s.stats.MaxSkips))
	w.Attr("maxdelay", int64(s.stats.MaxDelaySlots))
	w.Attr("idle", int64(s.stats.IdleCycles))
	w.Attr("empty", int64(s.stats.EmptyCycles))
	for i := range s.rr {
		r := &s.rr[i]
		nc := 0
		if r.Dir == Write {
			nc = d.Config().BlockCells
		}
		row := make([]int64, 0, 7+2*nc)
		row = append(row, int64(r.Queue), int64(r.Dir), int64(r.Ordinal),
			int64(r.Bank), int64(r.Enqueued), int64(r.Skips), int64(nc))
		if nc > 0 {
			row = d.AppendCells(row, r.Block)
		}
		w.Row(row...)
	}
	w.Begin("dss-orr")
	for bank, until := range s.until {
		if now < until {
			w.Row(int64(bank), int64(until))
		}
	}
}

// Restore loads a snapshot written by Snapshot into a freshly
// constructed scheduler of the same capacity and policy, scheduling
// DRAM d, whose slab receives the staged write blocks (placed staged,
// dram.DRAM.Place) and whose restored DRAM section frames each read's
// read-reserved block (dram.DRAM.Placed). It also accepts
// the ORR rows of older snapshots, which may hold expired locks and
// several per bank: a bank keeps its latest.
func (s *Scheduler) Restore(r *frame.Reader, d *dram.DRAM) error {
	if err := r.Expect("dss"); err != nil {
		return err
	}
	rr, err := r.NeedAttr("rr")
	if err != nil {
		return err
	}
	orr, err := r.NeedAttr("orr")
	if err != nil {
		return err
	}
	for _, f := range []struct {
		key string
		dst any
	}{
		{"enqueued", &s.stats.Enqueued}, {"issued", &s.stats.Issued},
		{"maxocc", &s.stats.MaxOccupancy}, {"maxskips", &s.stats.MaxSkips},
		{"maxdelay", &s.stats.MaxDelaySlots}, {"idle", &s.stats.IdleCycles},
		{"empty", &s.stats.EmptyCycles},
	} {
		v, err := r.NeedAttr(f.key)
		if err != nil {
			return err
		}
		switch dst := f.dst.(type) {
		case *uint64:
			*dst = uint64(v)
		case *int:
			*dst = int(v)
		case *cell.Slot:
			*dst = cell.Slot(v)
		}
	}
	if int(rr) > s.capacity {
		return fmt.Errorf("%w: dss rr holds %d, capacity %d", frame.ErrFrame, rr, s.capacity)
	}
	for i := int64(0); i < rr; i++ {
		row, err := r.NeedRow(-1)
		if err != nil {
			return err
		}
		if len(row) < 7 {
			return fmt.Errorf("%w: dss rr row too short", frame.ErrFrame)
		}
		// A write carries its staged block and a read none; the queue
		// and bank must address d.
		nc := row[6]
		if dir := Direction(row[1]); !(dir == Write && nc == int64(d.Config().BlockCells) || dir == Read && nc == 0) ||
			len(row) != 7+2*int(nc) {
			return fmt.Errorf("%w: dss rr row: direction %d with %d cells", frame.ErrFrame, row[1], nc)
		}
		if row[0] < 0 || row[0] >= int64(d.Config().Queues) || row[3] < 0 || row[3] >= int64(d.Config().Banks) {
			return fmt.Errorf("%w: dss rr row: queue %d bank %d", frame.ErrFrame, row[0], row[3])
		}
		req := Request{
			Queue:    cell.PhysQueueID(row[0]),
			Dir:      Direction(row[1]),
			Ordinal:  uint64(row[2]),
			Bank:     dram.BankID(row[3]),
			Enqueued: cell.Slot(row[4]),
			Skips:    int(row[5]),
		}
		if nc > 0 {
			if req.Block, err = d.RestoreBlock(row[7:]); err != nil {
				return fmt.Errorf("dss rr row %d: %w", i, err)
			}
			err = d.Place(req.Queue, req.Ordinal, req.Block, dram.Staged)
		} else {
			req.Block, err = d.Placed(req.Queue, req.Ordinal, dram.ReadReserved)
		}
		if err != nil {
			return fmt.Errorf("dss rr row %d: %w", i, err)
		}
		s.rr = append(s.rr, req)
	}
	if err := r.Expect("dss-orr"); err != nil {
		return err
	}
	for i := int64(0); i < orr; i++ {
		row, err := r.NeedRow(2)
		if err != nil {
			return err
		}
		if row[0] < 0 || row[0] >= int64(d.Config().Banks) {
			return fmt.Errorf("%w: dss orr bank %d out of range", frame.ErrFrame, row[0])
		}
		s.lock(dram.BankID(row[0]), cell.Slot(row[1]))
	}
	return nil
}
