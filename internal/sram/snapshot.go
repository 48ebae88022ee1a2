package sram

import (
	"fmt"

	"repro/internal/cell"
	"repro/internal/dram"
	"repro/internal/frame"
)

// Snapshot/Restore serialize the resident-cell state of a store
// through the trace frame codec. The geometry (capacity, sublist
// count, block size) is reconstructed by the owner from its
// configuration; only the occupancy — pop cursors, live cells keyed by
// stream position, ordering state and the high-water statistic — is
// framed. The cells live in landed blocks of the DRAM's queue lists:
// Snapshot walks the lists, and Restore rebuilds each landed block
// from its rows and places it (dram.DRAM.Place) for the owner to
// relink; per-sublist ordering cursors are restored verbatim because
// they outlive the cells that set them.

// live reports whether q has resident cells or has popped any, and so
// is framed.
func live(d *dram.DRAM, q cell.PhysQueueID) bool { return d.NextPop(q) > 0 || d.LandedCells(q) > 0 }

// writeCells writes one row per resident cell of q's landed blocks
// whose ordinal is sub mod every (every = 1: all of them), by stream
// position: the front block's from the pop offset.
func writeCells(w *frame.Writer, d *dram.DRAM, q cell.PhysQueueID, every, sub uint64) {
	b, next := uint64(d.BlockCells()), d.NextPop(q)
	d.EachBlock(q, func(o uint64, blk dram.Block, st dram.State) {
		if st != dram.Landed || o%every != sub {
			return
		}
		for i := uint64(0); i < b; i++ {
			if pos := o*b + i; pos >= next {
				c := d.Cell(blk, int(i))
				w.Row(int64(pos), int64(c.Queue), int64(c.Seq))
			}
		}
	})
}

// restoreCells reads count rows of queue q, resident cells by stream
// position as writeCells wrote them, and places each landed block they
// describe. Every held block is whole and a run of one queue's cells:
// a block's rows are consecutive, from its first cell (the front
// block's from the pop offset next) to its last; rows of one block
// that name two queues, or whose sequence numbers do not step with
// their positions, are rejected. blocks bounds the block ordinals.
func restoreCells(r *frame.Reader, d *dram.DRAM, q cell.PhysQueueID, next uint64, count int64, blocks uint64) error {
	b := uint64(d.BlockCells())
	blk, want := dram.NoBlock, uint64(0)
	for j := int64(0); j < count; j++ {
		row, err := r.NeedRow(3)
		if err != nil {
			return err
		}
		pos := uint64(row[0])
		if want%b != 0 {
			// Inside a block: the row continues its run.
			if c := d.Cell(blk, int(pos%b)); pos != want || row[1] != int64(c.Queue) || uint64(row[2]) != c.Seq {
				return fmt.Errorf("%w: queue %d block %d: row %d, %d, %d does not continue the block's run of queue %d",
					frame.ErrFrame, q, want/b, row[0], row[1], row[2], c.Queue)
			}
			want++
			continue
		}
		first := uint64(row[2]) - pos%b
		if row[0] < 0 || pos/b >= blocks || pos < next || (pos%b != 0 && pos != next) ||
			row[2] < 0 || uint64(row[2]) < pos%b || first >= dram.MaxSeq-b {
			return fmt.Errorf("%w: queue %d pos %d (seq %d) starts no block", frame.ErrFrame, q, row[0], row[2])
		}
		blk = d.AcquireBlock()
		d.SetCells(blk, cell.QueueID(row[1]), first)
		if err := d.Place(q, pos/b, blk, dram.Landed); err != nil {
			return err
		}
		want = pos + 1
	}
	if want%b != 0 {
		return fmt.Errorf("%w: queue %d block %d stops short at pos %d", frame.ErrFrame, q, want/b, want)
	}
	return nil
}

// restoreQueue reads a queue frame's q, nextpop and count attributes
// and sets the queue's pop cursor; blocks bounds the block ordinals.
// seen rejects a queue framed twice.
func restoreQueue(r *frame.Reader, d *dram.DRAM, kind string, seen map[int64]bool, blocks uint64) (cell.PhysQueueID, uint64, int64, error) {
	if err := r.Expect(kind); err != nil {
		return 0, 0, 0, err
	}
	var v [3]int64
	for i, key := range []string{"q", "nextpop", "count"} {
		var err error
		if v[i], err = r.NeedAttr(key); err != nil {
			return 0, 0, 0, err
		}
	}
	q, next, count := v[0], v[1], v[2]
	if q < 0 || q >= int64(d.Queues()) || next < 0 || uint64(next)/uint64(d.BlockCells()) >= blocks || seen[q] {
		return 0, 0, 0, fmt.Errorf("%w: %s %d next position %d", frame.ErrFrame, kind, q, next)
	}
	seen[q] = true
	d.SetPop(cell.PhysQueueID(q), uint64(next))
	return cell.PhysQueueID(q), uint64(next), count, nil
}

// Snapshot writes the CAM occupancy: one row per resident cell, by
// stream position (the block handles are not state).
func (s *CAMStore) Snapshot(w *frame.Writer) {
	n := 0
	for q := range s.d.Queues() {
		if live(s.d, cell.PhysQueueID(q)) {
			n++
		}
	}
	w.Begin("sram-cam")
	w.Attr("queues", int64(n))
	w.Attr("total", int64(s.total))
	w.Attr("highwater", int64(s.highWater))
	for i := range s.d.Queues() {
		q := cell.PhysQueueID(i)
		if !live(s.d, q) {
			continue
		}
		w.Begin("sram-cam-queue")
		w.Attr("q", int64(q))
		w.Attr("nextpop", int64(s.d.NextPop(q)))
		w.Attr("count", int64(s.d.LandedCells(q)))
		writeCells(w, s.d, q, 1, 0)
	}
}

// Restore loads a snapshot written by Snapshot into a freshly
// constructed store of the same geometry over a freshly constructed
// DRAM, placing one landed block per block ordinal for the owner to
// relink. blocks bounds the block ordinals the snapshot can hold (the
// owner derives it from its slot clock). The rows of a queue come in
// position order.
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
	seen := make(map[int64]bool)
	for i := int64(0); i < nq; i++ {
		q, next, count, err := restoreQueue(r, s.d, "sram-cam-queue", seen, blocks)
		if err != nil {
			return err
		}
		if err := restoreCells(r, s.d, q, next, count, blocks); err != nil {
			return err
		}
		s.total += int(count)
	}
	if s.total != int(total) {
		return fmt.Errorf("%w: cam total %d, snapshot says %d", frame.ErrFrame, s.total, total)
	}
	s.highWater = int(hw)
	return nil
}

// Snapshot writes the linked-list occupancy: each queue's cells
// sublist by sublist, each sublist head to tail.
func (s *ListStore) Snapshot(w *frame.Writer) {
	n := 0
	for q := range s.d.Queues() {
		if live(s.d, cell.PhysQueueID(q)) {
			n++
		}
	}
	seeded := 0
	for _, ok := range s.seeded {
		if ok {
			seeded++
		}
	}
	w.Begin("sram-list")
	w.Attr("queues", int64(n))
	w.Attr("seeded", int64(seeded))
	w.Attr("total", int64(s.total))
	w.Attr("highwater", int64(s.highWater))
	for i := range s.d.Queues() {
		q := cell.PhysQueueID(i)
		if !live(s.d, q) {
			continue
		}
		w.Begin("sram-list-queue")
		w.Attr("q", int64(q))
		w.Attr("nextpop", int64(s.d.NextPop(q)))
		w.Attr("count", int64(s.d.LandedCells(q)))
		for sub := range uint64(s.sublists) {
			writeCells(w, s.d, q, uint64(s.sublists), sub)
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
// constructed store of the same geometry over a freshly constructed
// DRAM, placing one landed block per block ordinal for the owner to
// relink. blocks bounds the block ordinals the snapshot can hold.
func (s *ListStore) Restore(r *frame.Reader, blocks uint64) error {
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
	seen := make(map[int64]bool)
	for i := int64(0); i < nq; i++ {
		q, next, count, err := restoreQueue(r, s.d, "sram-list-queue", seen, blocks)
		if err != nil {
			return err
		}
		if err := restoreCells(r, s.d, q, next, count, blocks); err != nil {
			return err
		}
		s.total += int(count)
	}
	if s.total != int(total) || s.total > s.capacity {
		return fmt.Errorf("%w: list total %d of %d cells, snapshot says %d", frame.ErrFrame, s.total, s.capacity, total)
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
