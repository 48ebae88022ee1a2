package dram

import (
	"fmt"

	"repro/internal/cell"
	"repro/internal/frame"
)

// queueList is one physical queue's blocks, in ordinal order, linked
// through the slab records' next links (see the package
// documentation): front holds ordinal pop, of which off cells are
// delivered; readNext holds ordinal readReserved (NoBlock when every
// reserved write is reserved for reading too); back holds ordinal
// writeReserved−1. The list is empty, and front and back are NoBlock,
// exactly when pop == writeReserved; back's link is NoBlock.
type queueList struct {
	front, readNext, back Block
	off                   int32
	pop                   uint64
	// writeReserved is the next block ordinal to assign to a write.
	writeReserved uint64
	// readReserved is the next block ordinal to assign to a read.
	readReserved uint64
}

// link appends blk to q's list.
//
//pktbuf:hotpath
func (d *DRAM) link(q *queueList, blk Block) {
	d.SetNext(blk, NoBlock)
	if q.back == NoBlock {
		q.front = blk
	} else {
		d.SetNext(q.back, blk)
	}
	q.back = blk
}

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case Unlinked:
		return "unlinked"
	case Staged:
		return "staged"
	case Stored:
		return "stored"
	case ReadReserved:
		return "read-reserved"
	case InFlight:
		return "in flight"
	case Landed:
		return "landed"
	}
	return fmt.Sprintf("state %d", uint8(s))
}

// Land marks in-flight block blk, ordinal `ordinal` of queue p,
// landed in the head SRAM; the block stays in p's list until Pop
// delivers its last cell. A block that is not in flight, or an ordinal
// already delivered or not yet read, is refused (ErrBadOrdinal, or
// ErrBadBlock for a handle the slab never gave out) and nothing moves.
// The head SRAM organizations say first why they refuse a block
// (capacity, positions already popped or resident).
//
//pktbuf:hotpath
func (d *DRAM) Land(p cell.PhysQueueID, ordinal uint64, blk Block) error {
	q := d.queue(p)
	if !d.Live(blk) || ordinal < q.pop || ordinal >= q.readReserved || d.State(blk) != InFlight {
		return d.refuseLanding(q, ordinal, blk)
	}
	d.setState(blk, Landed)
	return nil
}

// refuseLanding says why Land refuses blk.
func (d *DRAM) refuseLanding(q *queueList, ordinal uint64, blk Block) error {
	switch {
	case !d.Live(blk):
		return fmt.Errorf("%w: handle %d", ErrBadBlock, blk)
	case ordinal < q.pop:
		return fmt.Errorf("%w: landing ordinal %d already delivered (front %d)", ErrBadOrdinal, ordinal, q.pop)
	case ordinal >= q.readReserved:
		return fmt.Errorf("%w: landing ordinal %d not read (next %d)", ErrBadOrdinal, ordinal, q.readReserved)
	}
	return fmt.Errorf("%w: landing ordinal %d: block %d is %v, not in flight", ErrBadOrdinal, ordinal, blk, d.State(blk))
}

// NextPop returns the stream position of p's next in-order cell:
// pop·b + off.
//
//pktbuf:hotpath
func (d *DRAM) NextPop(p cell.PhysQueueID) uint64 {
	q := d.queue(p)
	return q.pop*uint64(d.cfg.BlockCells) + uint64(q.off)
}

// Peek returns p's next in-order cell, if its block has landed.
//
//pktbuf:hotpath
func (d *DRAM) Peek(p cell.PhysQueueID) (cell.Cell, bool) {
	q := d.queue(p)
	if q.front == NoBlock || d.State(q.front) != Landed {
		return cell.Cell{}, false
	}
	return d.Cell(q.front, int(q.off)), true
}

// Pop removes and returns p's next in-order cell; its block, the
// front, must have landed. After the block's last cell the block
// leaves the list and goes back to the slab.
//
//pktbuf:hotpath
func (d *DRAM) Pop(p cell.PhysQueueID) (cell.Cell, bool) {
	q := d.queue(p)
	blk := q.front
	if blk == NoBlock || d.State(blk) != Landed {
		return cell.Cell{}, false
	}
	c := d.Cell(blk, int(q.off))
	if q.off++; int(q.off) == d.cfg.BlockCells {
		q.off = 0
		q.pop++
		if q.front = d.Next(blk); q.front == NoBlock {
			q.back = NoBlock
		}
		d.ReleaseBlock(blk)
	}
	return c, true
}

// EachBlock calls fn on each block of p's list in ordinal order, with
// its ordinal and state.
func (d *DRAM) EachBlock(p cell.PhysQueueID, fn func(ordinal uint64, blk Block, st State)) {
	q := d.queue(p)
	o := q.pop
	for blk := q.front; blk != NoBlock; blk = d.Next(blk) {
		fn(o, blk, d.State(blk))
		o++
	}
}

// LandedCells returns the number of p's cells resident in the head
// SRAM: its landed blocks' cells, less the front's delivered ones.
func (d *DRAM) LandedCells(p cell.PhysQueueID) int {
	n := 0
	d.EachBlock(p, func(_ uint64, _ Block, st State) {
		if st == Landed {
			n += d.cfg.BlockCells
		}
	})
	return n - int(d.queue(p).off)
}

// placeKey names a block a snapshot section frames: its physical
// queue and ordinal.
type placeKey struct {
	p       cell.PhysQueueID
	ordinal uint64
}

// Place records, during a restore, block blk that a snapshot section
// frames at ordinal of p in state st. Each section of a snapshot
// frames the blocks in one state — the Requests Register the staged
// writes, the DRAM the stored and read-reserved blocks, the completion
// calendar the blocks in flight, the head SRAM the landed ones — so
// the lists are relinked (Relink) once every section is read. A second
// block at the same place is rejected with frame.ErrFrame.
func (d *DRAM) Place(p cell.PhysQueueID, ordinal uint64, blk Block, st State) error {
	if p < 0 || int(p) >= len(d.queues) {
		return fmt.Errorf("%w: block of physical queue %d out of range", frame.ErrFrame, p)
	}
	k := placeKey{p, ordinal}
	if d.placed == nil {
		d.placed = make(map[placeKey]Block)
	}
	if _, dup := d.placed[k]; dup {
		return fmt.Errorf("%w: queue %d block %d framed twice", frame.ErrFrame, p, ordinal)
	}
	d.setState(blk, st)
	d.placed[k] = blk
	return nil
}

// Placed returns the block placed at ordinal of p, which must be in
// state st: a read request in a restored Requests Register names the
// read-reserved block the DRAM section framed.
func (d *DRAM) Placed(p cell.PhysQueueID, ordinal uint64, st State) (Block, error) {
	blk, ok := d.placed[placeKey{p, ordinal}]
	if !ok || d.State(blk) != st {
		return NoBlock, fmt.Errorf("%w: queue %d block %d is not framed %v", frame.ErrFrame, p, ordinal, st)
	}
	return blk, nil
}

// SetPop sets p's pop cursor, during a restore, to stream position
// pos (a head SRAM section's next position).
func (d *DRAM) SetPop(p cell.PhysQueueID, pos uint64) {
	q := d.queue(p)
	q.pop, q.off = pos/uint64(d.cfg.BlockCells), int32(pos%uint64(d.cfg.BlockCells))
}

// Relink ends a restore: it links every queue's list from the placed
// blocks, ordinals pop through writeReserved−1. Blocks below
// readReserved must be read-reserved, in flight or landed, the others
// staged or stored, and a partly delivered front must have landed. A
// refused head SRAM landing leaves its block in flight in the list but
// in no section; up to lost such gaps below readReserved are relinked
// as blocks that never land. Any other gap, or a block outside its
// queue's cursors, is rejected with frame.ErrFrame.
func (d *DRAM) Relink(lost uint64) error {
	placed := d.placed
	d.placed = nil
	used := 0
	for i := range d.queues {
		p, q := cell.PhysQueueID(i), &d.queues[i]
		if q.pop > q.readReserved {
			return fmt.Errorf("%w: queue %d pops block %d, read reserved to %d", frame.ErrFrame, p, q.pop, q.readReserved)
		}
		for o := q.pop; o < q.writeReserved; o++ {
			blk, ok := placed[placeKey{p, o}]
			switch {
			case ok:
				used++
				if st := d.State(blk); (st == Staged || st == Stored) != (o >= q.readReserved) {
					return fmt.Errorf("%w: queue %d block %d is %v, read reserved to %d", frame.ErrFrame, p, o, st, q.readReserved)
				}
			case o < q.readReserved && lost > 0:
				lost--
				blk = d.AcquireBlock()
				d.SetCells(blk, cell.NoQueue, 0)
				d.setState(blk, InFlight)
			default:
				return fmt.Errorf("%w: queue %d block %d is framed by no section", frame.ErrFrame, p, o)
			}
			d.link(q, blk)
			if o == q.readReserved {
				q.readNext = blk
			}
		}
		if q.off != 0 && (q.front == NoBlock || d.State(q.front) != Landed) {
			return fmt.Errorf("%w: queue %d block %d partly delivered but not landed", frame.ErrFrame, p, q.pop)
		}
		d.refreshReadable(p, q)
	}
	if used != len(placed) {
		return fmt.Errorf("%w: %d blocks framed outside their queue's cursors", frame.ErrFrame, len(placed)-used)
	}
	return nil
}
