package sram

import (
	"fmt"

	"repro/internal/cell"
	"repro/internal/dram"
	"repro/internal/frame"
)

// Snapshot/Restore serialize the resident-cell state of a store
// through the trace frame codec. The arena geometry (capacity,
// sublist count, block size) is reconstructed by the owner from its
// configuration; only the occupancy — pop cursors, live cells keyed by
// stream position, ordering state and the high-water statistic — is
// framed. Restore assumes a freshly constructed store of the same
// geometry and rebuilds every internal index (ring windows, slab
// blocks and links, free list) from the cells rather than reading it; per-sublist ordering cursors are restored verbatim
// because they outlive the cells that set them.

// nextPop returns the stream position of q's next in-order cell.
func (s *CAMStore) nextPop(st *blockQueue) uint64 { return st.next*uint64(s.b) + uint64(st.off) }

// Snapshot writes the CAM occupancy: one row per resident cell, by
// stream position (the block handles are not state).
func (s *CAMStore) Snapshot(w *frame.Writer) {
	live := 0
	for q := range s.queues {
		if st := &s.queues[q]; st.count > 0 || s.nextPop(st) > 0 {
			live++
		}
	}
	w.Begin("sram-cam")
	w.Attr("queues", int64(live))
	w.Attr("total", int64(s.total))
	w.Attr("highwater", int64(s.highWater))
	for q := range s.queues {
		st := &s.queues[q]
		if st.count == 0 && s.nextPop(st) == 0 {
			continue
		}
		w.Begin("sram-cam-queue")
		w.Attr("q", int64(q))
		w.Attr("nextpop", int64(s.nextPop(st)))
		w.Attr("count", int64(st.count))
		for o := st.next; o < st.next+uint64(len(st.ring)); o++ {
			blk := st.ring[o&uint64(len(st.ring)-1)]
			if blk == dram.NoBlock {
				continue
			}
			i := int32(0)
			if o == st.next {
				i = st.off
			}
			cells := s.slab.Cells(blk)
			for end := s.end(blk); i < end; i++ {
				c := cells[i]
				w.Row(int64(o*uint64(s.b)+uint64(i)), int64(c.Queue), int64(c.Seq))
			}
		}
	}
}

// Restore loads a snapshot written by Snapshot into a freshly
// constructed store of the same geometry, packing each block's rows
// into a slab block of its own.
func (s *CAMStore) Restore(r *frame.Reader) error {
	if err := r.Expect("sram-cam"); err != nil {
		return err
	}
	nq, err := r.NeedAttr("queues")
	if err != nil {
		return err
	}
	total, err := r.NeedAttr("total")
	if err != nil {
		return err
	}
	hw, err := r.NeedAttr("highwater")
	if err != nil {
		return err
	}
	b := uint64(s.b)
	for i := int64(0); i < nq; i++ {
		if err := r.Expect("sram-cam-queue"); err != nil {
			return err
		}
		q, err := r.NeedAttr("q")
		if err != nil {
			return err
		}
		nextPop, err := r.NeedAttr("nextpop")
		if err != nil {
			return err
		}
		count, err := r.NeedAttr("count")
		if err != nil {
			return err
		}
		st := s.queue(cell.PhysQueueID(q))
		st.next, st.off = uint64(nextPop)/b, int32(uint64(nextPop)%b)
		// Rows come in position order; each block's resident cells are
		// a run that starts at its first unpopped position.
		blk, ord, want := dram.NoBlock, uint64(0), uint64(0)
		for j := int64(0); j < count; j++ {
			row, err := r.NeedRow(3)
			if err != nil {
				return err
			}
			pos := uint64(row[0])
			if blk == dram.NoBlock || pos/b != ord {
				if blk != dram.NoBlock {
					s.setEnd(blk, int32(want-ord*b))
				}
				ord, want = pos/b, pos/b*b
				if ord == st.next {
					want += uint64(st.off)
				}
				if ord < st.next || (ord-st.next < uint64(len(st.ring)) && st.ring[ord&uint64(len(st.ring)-1)] != dram.NoBlock) {
					return fmt.Errorf("%w: cam queue %d pos %d out of order", frame.ErrFrame, q, pos)
				}
				blk = s.slab.AcquireBlock()
				st.ensure(ord)
				st.ring[ord&uint64(len(st.ring)-1)] = blk
			}
			if pos != want {
				return fmt.Errorf("%w: cam queue %d pos %d, want %d", frame.ErrFrame, q, pos, want)
			}
			s.slab.Cells(blk)[pos%b] = cell.Cell{Queue: cell.QueueID(row[1]), Seq: uint64(row[2])}
			want++
			st.count++
			s.total++
		}
		if blk != dram.NoBlock {
			s.setEnd(blk, int32(want-ord*b))
		}
	}
	if s.total != int(total) {
		return fmt.Errorf("%w: cam total %d, snapshot says %d", frame.ErrFrame, s.total, total)
	}
	s.highWater = int(hw)
	return nil
}

// Snapshot writes the linked-list occupancy.
func (s *ListStore) Snapshot(w *frame.Writer) {
	live := 0
	for q := range s.queues {
		if st := &s.queues[q]; st.count > 0 || st.nextPop > 0 {
			live++
		}
	}
	seeded := 0
	for _, ok := range s.seeded {
		if ok {
			seeded++
		}
	}
	w.Begin("sram-list")
	w.Attr("queues", int64(live))
	w.Attr("seeded", int64(seeded))
	w.Attr("total", int64(s.total))
	w.Attr("highwater", int64(s.highWater))
	for q := range s.queues {
		st := &s.queues[q]
		if st.count == 0 && st.nextPop == 0 {
			continue
		}
		w.Begin("sram-list-queue")
		w.Attr("q", int64(q))
		w.Attr("nextpop", int64(st.nextPop))
		w.Attr("count", int64(st.count))
		// Walk each sublist head-to-tail: positions increase within a
		// sublist, which is exactly the order Insert requires on replay.
		for li := q * s.sublists; li < (q+1)*s.sublists; li++ {
			for idx := s.head[li]; idx != nilIdx; idx = s.slab[idx].next {
				e := &s.slab[idx]
				w.Row(int64(e.pos), int64(e.c.Queue), int64(e.c.Seq))
			}
		}
	}
	// Ordering cursors survive their cells: a drained sublist still
	// rejects stale positions, and restore must preserve that.
	w.Begin("sram-list-sub")
	for li, ok := range s.seeded {
		if ok {
			w.Row(int64(li), int64(s.lastPos[li]))
		}
	}
}

// Restore loads a snapshot written by Snapshot into a freshly
// constructed store of the same geometry.
func (s *ListStore) Restore(r *frame.Reader) error {
	if err := r.Expect("sram-list"); err != nil {
		return err
	}
	nq, err := r.NeedAttr("queues")
	if err != nil {
		return err
	}
	seeded, err := r.NeedAttr("seeded")
	if err != nil {
		return err
	}
	total, err := r.NeedAttr("total")
	if err != nil {
		return err
	}
	hw, err := r.NeedAttr("highwater")
	if err != nil {
		return err
	}
	for i := int64(0); i < nq; i++ {
		if err := r.Expect("sram-list-queue"); err != nil {
			return err
		}
		q, err := r.NeedAttr("q")
		if err != nil {
			return err
		}
		nextPop, err := r.NeedAttr("nextpop")
		if err != nil {
			return err
		}
		count, err := r.NeedAttr("count")
		if err != nil {
			return err
		}
		st := s.queue(cell.PhysQueueID(q))
		st.nextPop = uint64(nextPop)
		for j := int64(0); j < count; j++ {
			row, err := r.NeedRow(3)
			if err != nil {
				return err
			}
			c := cell.Cell{Queue: cell.QueueID(row[1]), Seq: uint64(row[2])}
			if err := s.Insert(cell.PhysQueueID(q), uint64(row[0]), c); err != nil {
				return fmt.Errorf("sram: restore list queue %d: %w", q, err)
			}
		}
	}
	if s.total != int(total) {
		return fmt.Errorf("%w: list total %d, snapshot says %d", frame.ErrFrame, s.total, total)
	}
	if err := r.Expect("sram-list-sub"); err != nil {
		return err
	}
	for i := int64(0); i < seeded; i++ {
		row, err := r.NeedRow(2)
		if err != nil {
			return err
		}
		li := int(row[0])
		if li < 0 || li >= len(s.seeded) {
			return fmt.Errorf("%w: list sublist %d out of range", frame.ErrFrame, li)
		}
		s.seeded[li] = true
		s.lastPos[li] = uint64(row[1])
	}
	s.highWater = int(hw)
	return nil
}
