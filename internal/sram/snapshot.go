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
			for ; int(i) < s.b; i++ {
				c := s.slab.Cell(blk, int(i))
				w.Row(int64(o*uint64(s.b)+uint64(i)), int64(c.Queue), int64(c.Seq))
			}
		}
	}
}

// Restore loads a snapshot written by Snapshot into a freshly
// constructed store of the same geometry, one slab block per block
// ordinal. blocks bounds the block ordinals the snapshot can hold (the
// owner derives it from its slot clock), so a corrupt position cannot
// size a queue's ring. Every held block is whole and a run of one
// queue's cells: the front block's rows run from the pop offset to the
// block's end, every other block's from its first cell to its last, and
// rows of one block that name two queues, or whose sequence numbers do
// not step with their positions, are rejected.
func (s *CAMStore) Restore(r *frame.Reader, blocks uint64) error {
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
		if q < 0 || q >= int64(len(s.queues)) || nextPop < 0 || uint64(nextPop)/b >= blocks {
			return fmt.Errorf("%w: cam queue %d next position %d", frame.ErrFrame, q, nextPop)
		}
		st := &s.queues[q]
		if st.count != 0 || s.nextPop(st) != 0 {
			return fmt.Errorf("%w: cam queue %d framed twice", frame.ErrFrame, q)
		}
		st.next, st.off = uint64(nextPop)/b, int32(uint64(nextPop)%b)
		// Rows come in position order. want is the position the next
		// row must name while a block is open (want%b != 0), and the
		// lowest it may name when it starts a block; only the first
		// row may start one off a block boundary, at the pop offset.
		blk, want := dram.NoBlock, uint64(nextPop)
		for j := int64(0); j < count; j++ {
			row, err := r.NeedRow(3)
			if err != nil {
				return err
			}
			pos := uint64(row[0])
			if row[0] < 0 || pos/b >= blocks || pos < want ||
				(pos != want && (want%b != 0 || pos%b != 0)) {
				return fmt.Errorf("%w: cam queue %d pos %d, want %d", frame.ErrFrame, q, row[0], want)
			}
			if pos%b == 0 || blk == dram.NoBlock {
				blk = s.slab.AcquireBlock()
				s.slab.SetCells(blk, cell.QueueID(row[1]), uint64(row[2])-pos%b)
				st.ensure(pos / b)
				st.ring[(pos/b)&uint64(len(st.ring)-1)] = blk
			} else if c := s.slab.Cell(blk, int(pos%b)); row[1] != int64(c.Queue) || uint64(row[2]) != c.Seq {
				return fmt.Errorf("%w: cam queue %d block %d: cell %d, %d does not continue the block's run of queue %d",
					frame.ErrFrame, q, pos/b, row[1], row[2], c.Queue)
			}
			want = pos + 1
			st.count++
			s.total++
		}
		if want%b != 0 {
			return fmt.Errorf("%w: cam queue %d block %d stops short at pos %d", frame.ErrFrame, q, want/b, want)
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
		if q < 0 || q >= int64(len(s.queues)) {
			return fmt.Errorf("%w: list queue %d out of range", frame.ErrFrame, q)
		}
		st := &s.queues[q]
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
