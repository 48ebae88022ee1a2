package sram

import (
	"fmt"

	"repro/internal/arena"
	"repro/internal/cell"
	"repro/internal/dram"
)

// ListStore is the unified linked-list organization (§7.1): cells of
// every queue linked one after another, with a head/tail pointer per
// list. For CFDS the organization keeps Q·(B/b) sublists — one per
// (queue, bank-of-group) — so that out-of-order block delivery across
// banks never requires mid-list insertion (§8.2 item ii): within one
// bank, operations are strictly ordered, so each sublist grows FIFO.
//
// Here the links are the DRAM's: a queue's landed blocks sit in its
// DRAM list, and a sublist is the landed blocks of one bank, block
// ordinal mod (B/b). What the list organization adds to the CAM is
// that discipline: a block may only enter its sublist behind the
// positions that sublist has already taken (ErrOrder otherwise).
type ListStore struct {
	occupancy
	// lastPos/seeded are indexed by q*sublists + sublist. lastPos
	// tracks the highest position inserted into a sublist, to enforce
	// the §8.2 in-order-per-bank discipline; seeded records whether the
	// sublist has received any cell yet.
	lastPos  []uint64
	seeded   []bool
	sublists int
}

var _ Store = (*ListStore)(nil)

// NewList returns a ListStore over d's queue lists with the given
// capacity in cells, sublists = B/b (banks per group) and queues
// physical queue ordinals. capacity must be positive: a linked list is
// a physical slab.
func NewList(d *dram.DRAM, capacity, sublists, queues int) (*ListStore, error) {
	if d == nil {
		return nil, fmt.Errorf("sram: list needs a DRAM")
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
	return &ListStore{
		occupancy: occupancy{d: d, b: d.BlockCells(), capacity: capacity},
		lastPos:   make([]uint64, queues*sublists),
		seeded:    make([]bool, queues*sublists),
		sublists:  sublists,
	}, nil
}

// sublistFor returns the flattened sublist index for block ordinal of
// queue q: ordinal mod (B/b), mirroring the block-cyclic bank
// interleave.
func (s *ListStore) sublistFor(q cell.PhysQueueID, ordinal uint64) int {
	li := int(q)*s.sublists + int(ordinal%uint64(s.sublists))
	if li >= len(s.seeded) {
		s.lastPos = arena.Grown(s.lastPos, (int(q)+1)*s.sublists)
		s.seeded = arena.Grown(s.seeded, (int(q)+1)*s.sublists)
	}
	return li
}

// Land implements Store: a block that fits, is not resident or
// popped, and may enter its sublist lands whole.
func (s *ListStore) Land(q cell.PhysQueueID, ordinal uint64, blk dram.Block) error {
	if err := s.refusal(q, ordinal, blk, nil); err != nil {
		return err
	}
	base := ordinal * uint64(s.b)
	li := s.sublistFor(q, ordinal)
	if s.seeded[li] && base <= s.lastPos[li] {
		if ordinal == s.lastPos[li]/uint64(s.b) {
			return fmt.Errorf("%w: queue %d pos %d", ErrDuplicate, q, base)
		}
		return fmt.Errorf("%w: queue %d pos %d after %d in sublist %d",
			ErrOrder, q, base, s.lastPos[li], li%s.sublists)
	}
	if err := s.occupancy.Land(q, ordinal, blk); err != nil {
		return err
	}
	s.lastPos[li], s.seeded[li] = base+uint64(s.b)-1, true
	return nil
}
