// Package sram implements the shared head SRAM buffer organizations
// of §7.1 and §8.2: the global CAM (targeted at shortest access time)
// and the unified linked list (targeted at minimum area,
// time-multiplexed).
//
// Both organizations store cells of many physical queues in one shared
// memory and must support, for CFDS, *out-of-order insertion*: the
// DRAM scheduler may deliver blocks of one queue out of their natural
// order (§8.2). A block's place in its queue's stream is therefore an
// explicit key — its block ordinal, so cell i of the block sits at
// stream position ordinal·b + i — and Pop always returns the next
// in-order cell.
//
// A store holds no cells and no per-queue state of its own. Each
// physical queue's blocks are one list in the DRAM (dram.DRAM), from
// the write reservation to the last pop, and a block carries its
// lifecycle state in its slab record. Landing a block moves it from in
// flight to landed in place; Pop composes each cell from the front
// block's run (its queue and the sequence number of its first cell),
// and the block leaves the list and goes back to the slab after its
// last cell. A store is the head SRAM's capacity, total and high-water
// accounting over those landed blocks, plus, for the linked list, the
// per-bank ordering discipline. A block lands whole or not at all: a
// block that does not fit, or that names a position already resident
// or already popped, is refused and does not move (a refused block in
// flight stays in flight). The engine sizes the head SRAM so that a
// refusal is an invariant violation, never a semantics
// (core.Config.HeadSRAMCells).
//
// The two implementations are functionally equivalent (see the
// equivalence property test); they differ only in the hardware cost
// model (internal/cacti) and in the ordering discipline they require:
// the linked list relies on per-bank FIFO delivery (§8.2 implements
// Q·(B/b) sublists because "two operations over the same bank are
// always performed in strict order").
package sram

import (
	"errors"
	"fmt"

	"repro/internal/cell"
	"repro/internal/dram"
)

// Errors returned by the stores.
var (
	ErrFull      = errors.New("sram: store is full")
	ErrDuplicate = errors.New("sram: cell position already present")
	ErrMissing   = errors.New("sram: next in-order cell not present")
	ErrOrder     = errors.New("sram: out-of-order insertion within a bank sublist")
)

// Store is a shared SRAM buffer holding cells of many physical queues.
//
// Land lands in-flight block blk, the block at ordinal `ordinal` of
// queue q's lifetime stream (its cell i is the cell at stream position
// ordinal·b + i). Blocks may land out of order subject to the
// implementation's discipline. A block the store cannot take whole —
// it does not fit, or its positions are already resident or already
// popped — is refused whole: the block does not move, Total and
// HighWater do not move, and the error wraps ErrFull or ErrDuplicate
// (ErrOrder for the list's bank discipline; dram.ErrBadOrdinal or
// dram.ErrBadBlock for a block that is not in flight). Pop removes and
// returns the cell at the queue's next unread position; HasNext
// reports whether Pop would succeed. Popped positions advance strictly
// one at a time.
type Store interface {
	Land(q cell.PhysQueueID, ordinal uint64, blk dram.Block) error
	Pop(q cell.PhysQueueID) (cell.Cell, error)
	// Peek returns the next in-order cell without removing it.
	Peek(q cell.PhysQueueID) (cell.Cell, bool)
	// HasNext reports whether the next in-order cell of q is resident.
	HasNext(q cell.PhysQueueID) bool
	// Len returns the number of resident cells of q.
	Len(q cell.PhysQueueID) int
	// Total returns the number of resident cells across all queues.
	Total() int
	// Cap returns the store capacity in cells (0 = unbounded).
	Cap() int
	// HighWater returns the maximum Total ever observed, for
	// validating the dimensioning formulas.
	HighWater() int
}

// occupancy is what both organizations keep of their own: the capacity,
// total and high-water accounting over the landed blocks of d's queue
// lists, whose cells it pops.
type occupancy struct {
	d         *dram.DRAM
	b         int
	capacity  int
	total     int
	highWater int
}

// Land implements Store: a block that fits lands in place.
//
//pktbuf:hotpath
func (s *occupancy) Land(q cell.PhysQueueID, ordinal uint64, blk dram.Block) error {
	if s.capacity > 0 && s.total+s.b > s.capacity {
		return s.refusal(q, ordinal, blk, nil)
	}
	if err := s.d.Land(q, ordinal, blk); err != nil {
		return s.refusal(q, ordinal, blk, err)
	}
	s.total += s.b
	if s.total > s.highWater {
		s.highWater = s.total
	}
	return nil
}

// refusal says why the store cannot take block blk at ordinal of q
// whole: it does not fit, its positions are popped, or it is resident;
// otherwise it returns err, the DRAM's reason, or nil.
func (s *occupancy) refusal(q cell.PhysQueueID, ordinal uint64, blk dram.Block, err error) error {
	pos := ordinal * uint64(s.b)
	switch {
	case s.capacity > 0 && s.total+s.b > s.capacity:
		return fmt.Errorf("%w: capacity %d", ErrFull, s.capacity)
	case pos < s.d.NextPop(q):
		return fmt.Errorf("%w: queue %d pos %d already popped", ErrDuplicate, q, pos)
	case s.d.Live(blk) && s.d.State(blk) == dram.Landed:
		return fmt.Errorf("%w: queue %d pos %d", ErrDuplicate, q, pos)
	}
	return err
}

// Pop implements Store. The block goes back to the slab after its last
// cell.
//
//pktbuf:hotpath
func (s *occupancy) Pop(q cell.PhysQueueID) (cell.Cell, error) {
	c, ok := s.d.Pop(q)
	if !ok {
		return cell.Cell{}, s.missing(q)
	}
	s.total--
	return c, nil
}

// missing is Pop's error for q: its next cell is not resident.
func (s *occupancy) missing(q cell.PhysQueueID) error {
	return fmt.Errorf("%w: queue %d pos %d", ErrMissing, q, s.d.NextPop(q))
}

// Peek implements Store.
//
//pktbuf:hotpath
func (s *occupancy) Peek(q cell.PhysQueueID) (cell.Cell, bool) { return s.d.Peek(q) }

// HasNext implements Store.
//
//pktbuf:hotpath
func (s *occupancy) HasNext(q cell.PhysQueueID) bool {
	_, ok := s.d.Peek(q)
	return ok
}

// Len implements Store.
func (s *occupancy) Len(q cell.PhysQueueID) int { return s.d.LandedCells(q) }

// Total implements Store.
func (s *occupancy) Total() int { return s.total }

// Cap implements Store.
func (s *occupancy) Cap() int { return s.capacity }

// HighWater implements Store.
func (s *occupancy) HighWater() int { return s.highWater }

// CAMStore is the global content-addressable organization (§7.1):
// every cell carries a tag (queue identifier and relative order); a
// lookup searches all entries. Functionally this is an associative map
// keyed by (queue, position), held here at block granularity: the
// cells stay in the slab block they arrived in, and the tag is the
// block's place in its queue's DRAM list. Out-of-order insertion is
// trivial because the order is part of the tag (§8.2 item i), so the
// CAM is its occupancy accounting alone.
type CAMStore struct{ occupancy }

var _ Store = (*CAMStore)(nil)

// NewCAM returns a CAMStore over d's queue lists with the given
// capacity in cells (0 = unbounded).
func NewCAM(d *dram.DRAM, capacity int) *CAMStore {
	return &CAMStore{occupancy{d: d, b: d.BlockCells(), capacity: capacity}}
}
