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
// Blocks arrive from the DRAM by handle into the buffer's one block
// slab (dram.Slab), where a block is a run: its queue and the sequence
// number of its first cell. The CAM keeps the handle: landing a block
// is one ring store, each cell is composed from the run on Pop, and
// the handle goes back to the slab after the block's last cell. The
// linked list copies the block's cells into its own entry slab and
// releases the handle at once. A block lands whole or not at all in
// both: a block that does not fit, or that names a position already
// resident or already popped, is refused and its handle goes back to
// the slab. The engine sizes the head SRAM so that a refusal is an
// invariant violation, never a semantics (core.Config.HeadSRAMCells).
//
// Per-queue bookkeeping is held in dense slices indexed by the
// physical queue ordinal (physical names are dense by construction:
// the renaming table of §6 hands out register-bounded ordinals). The
// stores grow their arenas on first contact with an ordinal beyond the
// constructed size, so growth is amortized and off the steady-state
// path.
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
// Land takes ownership of slab block blk, the block at ordinal
// `ordinal` of queue q's lifetime stream (its cell i is the cell at
// stream position ordinal·b + i). Blocks may land out of order subject
// to the implementation's discipline. A block the store cannot take
// whole — it does not fit, or its positions are already resident or
// already popped — is refused whole: the handle goes back to the slab,
// Total and HighWater do not move, and the error wraps ErrFull or
// ErrDuplicate (ErrOrder for the list's bank discipline). Pop removes
// and returns the cell at the queue's next unread position; HasNext
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

// blockQueue is the per-queue state of the CAM organization: a
// power-of-two ring of block handles indexed by block ordinal, plus
// the pop cursor (the ordinal being popped and the cells of it already
// delivered). The ring is indexed by stream position, not by a queue
// identifier, mirroring the associative tag lookup of the hardware:
// the tag is (queue, ordinal), and since a queue's blocks are consumed
// strictly in order, the live tags always fall in the window
// [next, next+len(ring)), so ordinal&(len-1) resolves the lookup in
// O(1) without hashing. An empty slot holds dram.NoBlock.
type blockQueue struct {
	ring  []dram.Block
	next  uint64
	off   int32
	count int32
}

// ensure grows the ring until ordinal fits in the window starting at
// next, re-placing resident handles by their ordinal.
func (st *blockQueue) ensure(ordinal uint64) {
	need := ordinal - st.next + 1
	size := uint64(len(st.ring))
	if size >= need {
		return
	}
	if size == 0 {
		size = 2
	}
	for size < need {
		size <<= 1
	}
	ring := make([]dram.Block, size)
	for o := st.next; o < st.next+uint64(len(st.ring)); o++ {
		ring[o&(size-1)] = st.ring[o&uint64(len(st.ring)-1)]
	}
	st.ring = ring
}

// CAMStore is the global content-addressable organization (§7.1):
// every cell carries a tag (queue identifier and relative order); a
// lookup searches all entries. Functionally this is an associative map
// keyed by (queue, position), held here at block granularity: the
// cells stay in the slab block they arrived in. Out-of-order insertion
// is trivial because the order is part of the tag (§8.2 item i).
//
// Every held block is whole, so a queue's pop offset is non-zero only
// while its front block is resident.
type CAMStore struct {
	slab      *dram.Slab
	b         int
	queues    []blockQueue
	capacity  int
	total     int
	highWater int
}

var _ Store = (*CAMStore)(nil)

// NewCAM returns a CAMStore over slab with the given capacity in cells
// (0 = unbounded) serving queues physical queue ordinals.
func NewCAM(slab *dram.Slab, capacity, queues int) *CAMStore {
	if queues < 0 {
		queues = 0
	}
	return &CAMStore{slab: slab, b: slab.BlockCells(), queues: make([]blockQueue, queues), capacity: capacity}
}

func (s *CAMStore) queue(q cell.PhysQueueID) *blockQueue {
	for int(q) >= len(s.queues) {
		s.queues = append(s.queues, blockQueue{})
	}
	return &s.queues[q]
}

// Land implements Store: a block that fits into a free slot is one
// ring store.
//
//pktbuf:hotpath
func (s *CAMStore) Land(q cell.PhysQueueID, ordinal uint64, blk dram.Block) error {
	st := s.queue(q)
	if ordinal >= st.next && (s.capacity == 0 || s.total+s.b <= s.capacity) {
		st.ensure(ordinal)
		if slot := ordinal & uint64(len(st.ring)-1); st.ring[slot] == dram.NoBlock {
			st.ring[slot] = blk
			st.count += int32(s.b)
			s.total += s.b
			if s.total > s.highWater {
				s.highWater = s.total
			}
			return nil
		}
	}
	return s.refuse(q, st, ordinal, blk)
}

// refuse hands a block Land cannot take back to the slab and says why.
func (s *CAMStore) refuse(q cell.PhysQueueID, st *blockQueue, ordinal uint64, blk dram.Block) error {
	s.slab.ReleaseBlock(blk)
	pos := ordinal * uint64(s.b)
	switch {
	case s.capacity > 0 && s.total+s.b > s.capacity:
		return fmt.Errorf("%w: capacity %d", ErrFull, s.capacity)
	case pos < s.nextPop(st):
		return fmt.Errorf("%w: queue %d pos %d already popped", ErrDuplicate, q, pos)
	default:
		return fmt.Errorf("%w: queue %d pos %d", ErrDuplicate, q, pos)
	}
}

// front returns the block holding q's next in-order cell and its slot,
// or NoBlock if that cell is not resident.
//
//pktbuf:hotpath
func (s *CAMStore) front(st *blockQueue) (dram.Block, uint64) {
	if st.count == 0 {
		return dram.NoBlock, 0
	}
	slot := st.next & uint64(len(st.ring)-1)
	return st.ring[slot], slot
}

// Pop implements Store. The block goes back to the slab after its last
// cell.
//
//pktbuf:hotpath
func (s *CAMStore) Pop(q cell.PhysQueueID) (cell.Cell, error) {
	st := s.queue(q)
	blk, slot := s.front(st)
	if blk == dram.NoBlock {
		return cell.Cell{}, fmt.Errorf("%w: queue %d pos %d", ErrMissing, q, s.nextPop(st)) //pktbuf:allow hotpath-noalloc cold invariant-violation path; allocates only when the slot already failed
	}
	c := s.slab.Cell(blk, int(st.off))
	st.count--
	s.total--
	if st.off++; int(st.off) == s.b {
		st.ring[slot] = dram.NoBlock
		st.next++
		st.off = 0
		s.slab.ReleaseBlock(blk)
	}
	return c, nil
}

// Peek implements Store.
//
//pktbuf:hotpath
func (s *CAMStore) Peek(q cell.PhysQueueID) (cell.Cell, bool) {
	st := s.queue(q)
	blk, _ := s.front(st)
	if blk == dram.NoBlock {
		return cell.Cell{}, false
	}
	return s.slab.Cell(blk, int(st.off)), true
}

// HasNext implements Store.
//
//pktbuf:hotpath
func (s *CAMStore) HasNext(q cell.PhysQueueID) bool {
	blk, _ := s.front(s.queue(q))
	return blk != dram.NoBlock
}

// Len implements Store.
func (s *CAMStore) Len(q cell.PhysQueueID) int { return int(s.queue(q).count) }

// Total implements Store.
func (s *CAMStore) Total() int { return s.total }

// Cap implements Store.
func (s *CAMStore) Cap() int { return s.capacity }

// HighWater implements Store.
func (s *CAMStore) HighWater() int { return s.highWater }
