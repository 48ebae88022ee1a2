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
// releases the handle at once. Capacity, duplicate and miss semantics are per cell
// in both: a block that lands in a nearly full store keeps exactly the
// cells that fit.
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
// to the implementation's discipline. Cells the store cannot accept —
// it is full, or the position is already resident or already popped —
// are dropped one by one exactly as a per-cell insert would drop them;
// Land returns how many and the error of the first. Pop removes and
// returns the cell at the queue's next unread position; HasNext
// reports whether Pop would succeed. Popped positions advance strictly
// one at a time.
type Store interface {
	Land(q cell.PhysQueueID, ordinal uint64, blk dram.Block) (rejected int, err error)
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
type CAMStore struct {
	slab   *dram.Slab
	b      int
	queues []blockQueue
	// partial maps a block of which only a prefix was accepted (the
	// store filled up while it landed) to the end of its resident
	// cells. Every other held block is whole. It is empty unless the
	// head SRAM overflowed, which a correctly dimensioned buffer never
	// does.
	partial   map[dram.Block]int32
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

// end returns the end of blk's resident cells: b for a whole block.
func (s *CAMStore) end(blk dram.Block) int32 {
	if len(s.partial) != 0 {
		if e, ok := s.partial[blk]; ok {
			return e
		}
	}
	return int32(s.b)
}

// Land implements Store. The common case — a whole block into a free
// slot with room to spare — is one ring store.
//
//pktbuf:hotpath
func (s *CAMStore) Land(q cell.PhysQueueID, ordinal uint64, blk dram.Block) (int, error) {
	st := s.queue(q)
	if ordinal >= st.next && (st.off == 0 || ordinal != st.next) &&
		(s.capacity == 0 || s.total+s.b <= s.capacity) {
		st.ensure(ordinal)
		if slot := ordinal & uint64(len(st.ring)-1); st.ring[slot] == dram.NoBlock {
			st.ring[slot] = blk
			st.count += int32(s.b)
			s.total += s.b
			if s.total > s.highWater {
				s.highWater = s.total
			}
			return 0, nil
		}
	}
	return s.landSlow(q, st, ordinal, blk)
}

// landSlow lands a block that cannot be taken whole: the store lacks
// room for it, or some of its positions are resident or already
// popped. Cells are accepted exactly as a per-cell insert of positions
// ordinal·b … ordinal·b+b−1 in order would accept them; since the
// resident and popped positions of a block always form a prefix, the
// accepted cells are a contiguous run [start, start+accepted).
func (s *CAMStore) landSlow(q cell.PhysQueueID, st *blockQueue, ordinal uint64, blk dram.Block) (int, error) {
	held := dram.NoBlock
	if ordinal >= st.next && ordinal-st.next < uint64(len(st.ring)) {
		held = st.ring[ordinal&uint64(len(st.ring)-1)]
	}
	// start is the first position of the block neither resident nor
	// popped.
	start := 0
	switch {
	case ordinal < st.next:
		start = s.b
	case held != dram.NoBlock:
		start = int(s.end(held))
	case ordinal == st.next:
		start = int(st.off)
	}
	accepted := s.b - start
	if s.capacity > 0 {
		accepted = max(0, min(accepted, s.capacity-s.total))
	}
	rejected := s.b - accepted
	var err error
	switch {
	case rejected == 0:
	case start == 0 || (s.capacity > 0 && s.total >= s.capacity):
		err = fmt.Errorf("%w: capacity %d", ErrFull, s.capacity)
	case ordinal*uint64(s.b) < s.nextPop(st):
		err = fmt.Errorf("%w: queue %d pos %d already popped", ErrDuplicate, q, ordinal*uint64(s.b))
	default:
		err = fmt.Errorf("%w: queue %d pos %d", ErrDuplicate, q, ordinal*uint64(s.b))
	}
	if accepted == 0 {
		s.slab.ReleaseBlock(blk)
		return rejected, err
	}
	end := int32(start + accepted)
	if held != dram.NoBlock {
		// A second landing of a partly resident block fills in the
		// missing cells of the one already held. A block is a run, so
		// the held block already names every cell of the ordinal: it
		// keeps its run, and the landed copy goes back to the slab.
		s.slab.ReleaseBlock(blk)
	} else {
		st.ensure(ordinal)
		held = blk
		st.ring[ordinal&uint64(len(st.ring)-1)] = blk
	}
	s.setEnd(held, end)
	st.count += int32(accepted)
	s.total += accepted
	if s.total > s.highWater {
		s.highWater = s.total
	}
	return rejected, err
}

// setEnd records the end of blk's resident cells.
func (s *CAMStore) setEnd(blk dram.Block, end int32) {
	if int(end) == s.b {
		delete(s.partial, blk)
		return
	}
	if s.partial == nil {
		s.partial = make(map[dram.Block]int32)
	}
	s.partial[blk] = end
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
	blk := st.ring[slot]
	if blk != dram.NoBlock && len(s.partial) != 0 && st.off >= s.end(blk) {
		return dram.NoBlock, 0
	}
	return blk, slot
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
