package sram

import (
	"fmt"

	"repro/internal/cell"
	"repro/internal/dram"
)

// nilIdx marks an empty slab pointer.
const nilIdx int32 = -1

// entry is one slot of the unified linked-list slab: a cell plus the
// pointer field to the next entry of the same sublist.
type entry struct {
	c    cell.Cell
	pos  uint64
	next int32
}

// listQueue is the per-queue bookkeeping of the linked-list
// organization: the resident-cell count and the global pop cursor. The
// per-sublist head/tail pointers and ordering state live in the
// store's flattened arrays (queue ordinal × sublists + sublist index),
// so adding a queue is one slice grow, not a per-queue allocation.
type listQueue struct {
	count   int
	nextPop uint64
}

// ListStore is the unified linked-list organization (§7.1): a
// direct-mapped slab where each entry holds one cell and a pointer to
// the next, plus a head/tail pointer table per list. For CFDS the
// store keeps Q·(B/b) sublists — one per (queue, bank-of-group) — so
// that out-of-order block delivery across banks never requires
// mid-list insertion (§8.2 item ii): within one bank, operations are
// strictly ordered, so each sublist grows FIFO.
//
// A landing block's cells are copied into the store's own entry slab
// (the list is the area-optimised organization: one pointer per cell,
// no per-queue ring) and its handle goes straight back to the buffer's
// cell slab. The entry free list is intrusive (threaded through the
// entries' next pointers), and all per-queue state is slice-indexed by
// the physical queue ordinal.
type ListStore struct {
	cells    *dram.Slab
	slab     []entry
	freeHead int32
	queues   []listQueue
	// head/tail/lastPos/seeded are indexed by q*sublists + sublist.
	// lastPos tracks the highest position inserted into a sublist, to
	// enforce the §8.2 in-order-per-bank discipline; seeded records
	// whether the sublist has received any cell yet.
	head, tail []int32
	lastPos    []uint64
	seeded     []bool
	sublists   int
	blockCell  int
	total      int
	highWater  int
}

var _ Store = (*ListStore)(nil)

// NewList returns a ListStore that takes its blocks from cells (whose
// block size is b), with the given capacity in cells, sublists = B/b
// (banks per group) and queues physical queue ordinals. capacity must
// be positive: a linked list is a physical slab.
func NewList(cells *dram.Slab, capacity, sublists, queues int) (*ListStore, error) {
	if cells == nil {
		return nil, fmt.Errorf("sram: list needs a cell slab")
	}
	if capacity <= 0 {
		return nil, fmt.Errorf("sram: list capacity must be positive, got %d", capacity)
	}
	if sublists <= 0 {
		return nil, fmt.Errorf("sram: sublists must be positive, got %d", sublists)
	}
	if queues < 0 {
		return nil, fmt.Errorf("sram: queues must be non-negative, got %d", queues)
	}
	s := &ListStore{
		cells:     cells,
		slab:      make([]entry, capacity),
		queues:    make([]listQueue, queues),
		head:      make([]int32, queues*sublists),
		tail:      make([]int32, queues*sublists),
		lastPos:   make([]uint64, queues*sublists),
		seeded:    make([]bool, queues*sublists),
		sublists:  sublists,
		blockCell: cells.BlockCells(),
	}
	for i := range s.head {
		s.head[i], s.tail[i] = nilIdx, nilIdx
	}
	// Thread the free list through the slab.
	for i := range s.slab {
		s.slab[i].next = int32(i + 1)
	}
	s.slab[capacity-1].next = nilIdx
	s.freeHead = 0
	return s, nil
}

func (s *ListStore) queue(q cell.PhysQueueID) *listQueue {
	for int(q) >= len(s.queues) {
		s.queues = append(s.queues, listQueue{})
		for i := 0; i < s.sublists; i++ {
			s.head = append(s.head, nilIdx)
			s.tail = append(s.tail, nilIdx)
			s.lastPos = append(s.lastPos, 0)
			s.seeded = append(s.seeded, false)
		}
	}
	return &s.queues[q]
}

// sublistFor returns the flattened sublist index for stream position
// pos of queue q: block ordinal mod (B/b), mirroring the block-cyclic
// bank interleave.
func (s *ListStore) sublistFor(q cell.PhysQueueID, pos uint64) int {
	return int(q)*s.sublists + int((pos/uint64(s.blockCell))%uint64(s.sublists))
}

// Land implements Store: the block's cells are copied in and its
// handle is released. A block's cells share one bank, hence one
// sublist, so the block is checked once up front — b free entries, and
// its first position may enter the sublist — and then inserted whole.
func (s *ListStore) Land(q cell.PhysQueueID, ordinal uint64, blk dram.Block) error {
	defer s.cells.ReleaseBlock(blk)
	base := ordinal * uint64(s.blockCell)
	if s.total+s.blockCell > len(s.slab) {
		return fmt.Errorf("%w: capacity %d", ErrFull, len(s.slab))
	}
	if err := s.admit(q, base); err != nil {
		return err
	}
	for i := 0; i < s.blockCell; i++ {
		s.link(q, base+uint64(i), s.cells.Cell(blk, i))
	}
	return nil
}

// Insert adds cell c at stream position pos of queue q. Within one
// sublist, positions must arrive in increasing order (the bank FIFO
// discipline); violating that returns ErrOrder.
func (s *ListStore) Insert(q cell.PhysQueueID, pos uint64, c cell.Cell) error {
	if s.freeHead == nilIdx {
		return fmt.Errorf("%w: capacity %d", ErrFull, len(s.slab))
	}
	if err := s.admit(q, pos); err != nil {
		return err
	}
	s.link(q, pos, c)
	return nil
}

// admit reports why position pos of queue q may not enter its sublist:
// it was popped, its block is the sublist's last, or it comes before
// that block.
func (s *ListStore) admit(q cell.PhysQueueID, pos uint64) error {
	if pos < s.queue(q).nextPop {
		return fmt.Errorf("%w: queue %d pos %d already popped", ErrDuplicate, q, pos)
	}
	li := s.sublistFor(q, pos)
	if s.seeded[li] && pos <= s.lastPos[li] {
		if b := uint64(s.blockCell); pos/b == s.lastPos[li]/b {
			return fmt.Errorf("%w: queue %d pos %d", ErrDuplicate, q, pos)
		}
		return fmt.Errorf("%w: queue %d pos %d after %d in sublist %d",
			ErrOrder, q, pos, s.lastPos[li], li%s.sublists)
	}
	return nil
}

// link appends cell c at position pos to its sublist; admit has
// cleared it and a free entry exists.
func (s *ListStore) link(q cell.PhysQueueID, pos uint64, c cell.Cell) {
	li := s.sublistFor(q, pos)
	idx := s.freeHead
	s.freeHead = s.slab[idx].next
	s.slab[idx] = entry{c: c, pos: pos, next: nilIdx}

	if s.tail[li] == nilIdx {
		s.head[li] = idx
	} else {
		s.slab[s.tail[li]].next = idx
	}
	s.tail[li] = idx
	s.lastPos[li] = pos
	s.seeded[li] = true
	s.queues[q].count++
	s.total++
	if s.total > s.highWater {
		s.highWater = s.total
	}
}

// Pop implements Store.
func (s *ListStore) Pop(q cell.PhysQueueID) (cell.Cell, error) {
	st := s.queue(q)
	li := s.sublistFor(q, st.nextPop)
	idx := s.head[li]
	if idx == nilIdx || s.slab[idx].pos != st.nextPop {
		return cell.Cell{}, fmt.Errorf("%w: queue %d pos %d", ErrMissing, q, st.nextPop)
	}
	c := s.slab[idx].c
	s.head[li] = s.slab[idx].next
	if s.head[li] == nilIdx {
		s.tail[li] = nilIdx
	}
	// Return the entry to the free list.
	s.slab[idx] = entry{next: s.freeHead}
	s.freeHead = idx

	st.nextPop++
	st.count--
	s.total--
	return c, nil
}

// Peek implements Store.
func (s *ListStore) Peek(q cell.PhysQueueID) (cell.Cell, bool) {
	st := s.queue(q)
	li := s.sublistFor(q, st.nextPop)
	idx := s.head[li]
	if idx == nilIdx || s.slab[idx].pos != st.nextPop {
		return cell.Cell{}, false
	}
	return s.slab[idx].c, true
}

// HasNext implements Store.
func (s *ListStore) HasNext(q cell.PhysQueueID) bool {
	_, ok := s.Peek(q)
	return ok
}

// Len implements Store.
func (s *ListStore) Len(q cell.PhysQueueID) int { return s.queue(q).count }

// Total implements Store.
func (s *ListStore) Total() int { return s.total }

// Cap implements Store.
func (s *ListStore) Cap() int { return len(s.slab) }

// HighWater implements Store.
func (s *ListStore) HighWater() int { return s.highWater }
