package dram

import (
	"fmt"

	"repro/internal/cell"
	"repro/internal/frame"
)

// A slab chunk holds chunkBlocks = 2^chunkShift blocks, so a handle
// splits into chunk and offset by shift and mask.
const (
	chunkShift  = 5
	chunkBlocks = 1 << chunkShift
)

// A block record's first word holds the sequence number of the
// block's first cell in its low stateShift bits and the block's State
// in the bits above.
const (
	stateShift = 61
	seqMask    = 1<<stateShift - 1
)

// MaxSeq bounds the sequence numbers a block can hold: a restore
// rejects a block whose cells reach it.
const MaxSeq = seqMask

// State is a block's place in its physical queue's lifecycle, from
// the DRAM write reservation to the head SRAM's last pop (see the
// package documentation). Every block off a queue's list — staging, a
// tail run, or free — is Unlinked.
type State uint8

// The lifecycle states, in the order a block passes them.
const (
	Unlinked     State = iota
	Staged             // write reserved, in the Requests Register
	Stored             // write issued: the cells are in the array
	ReadReserved       // read reserved, still in the array
	InFlight           // read issued: in the completion calendar
	Landed             // in the head SRAM
)

// Slab is the buffer's one block store: one 16-byte record per block,
// in chunks that are allocated whole and never move, named by Block
// handles. Released handles are reused through a free list threaded
// through the records, so a steady stream of blocks neither copies nor
// allocates.
//
// A block is b consecutive cells of one logical queue (§3: the unit
// moved between the SRAMs and the DRAM). Queues are FIFO, so those
// cells are b consecutive arrivals and the block is a run: its record
// keeps the sequence number of its first cell, and cell k is
// (queue, first+k). The record is {first, next, word}; word has one
// meaning per owner:
//
//   - while the block is in flight — staged in the Requests Register,
//     stored in the DRAM, in the completion calendar or held by the
//     head SRAM — word is the block's logical queue (SetCells, Cell,
//     Queue);
//   - while the block is one of a tail queue's promised runs, word is
//     the run's length, which may be anything from 1 up (SetRun, Run),
//     and the queue is the tail queue's own;
//   - next links a tail queue's runs in order, a physical queue's
//     blocks in ordinal order (the DRAM's queue lists), and a released
//     block into the free list.
//
// A Slab is not safe for concurrent use.
type Slab struct {
	blockCells int
	// chunks[k] holds handles [k·chunkBlocks+1, (k+1)·chunkBlocks].
	// blocks counts the handles ever handed out; free heads the list
	// of released ones, linked through next.
	chunks []*[chunkBlocks]blockRec
	blocks int32
	free   Block
}

// blockRec is a block's 16-byte record (see Slab).
type blockRec struct {
	first uint64
	next  Block
	word  int32
}

// NewSlab returns an empty slab of blockCells-cell blocks. blockCells
// must be positive.
func NewSlab(blockCells int) *Slab {
	if blockCells <= 0 {
		panic("dram: slab block size must be positive")
	}
	return &Slab{blockCells: blockCells}
}

// BlockCells returns b, the number of cells per block.
func (s *Slab) BlockCells() int { return s.blockCells }

// AcquireBlock returns a free block, reusing released handles first
// (the last released is the first reused). A reused block retains a
// stale record: the caller sets its cells or its run, and sets the
// link if it follows it.
//
//pktbuf:hotpath
func (s *Slab) AcquireBlock() Block {
	if blk := s.free; blk != NoBlock {
		s.free = s.rec(blk).next
		return blk
	}
	return s.grow()
}

// grow hands out a never-used handle, adding a chunk when the last one
// is full. It is kept out of line: the chunk allocation is the cold
// path of AcquireBlock, not something its hot callers should inline.
//
//go:noinline
func (s *Slab) grow() Block {
	if int(s.blocks) == len(s.chunks)*chunkBlocks {
		s.chunks = append(s.chunks, new([chunkBlocks]blockRec))
	}
	s.blocks++
	return Block(s.blocks)
}

// rec returns blk's record.
//
//pktbuf:hotpath
func (s *Slab) rec(blk Block) *blockRec {
	i := int(blk) - 1
	return &s.chunks[i>>chunkShift][i&(chunkBlocks-1)]
}

// Cell returns cell k of in-flight block blk: the block's queue and
// the sequence number first+k.
//
//pktbuf:hotpath
func (s *Slab) Cell(blk Block, k int) cell.Cell {
	r := s.rec(blk)
	return cell.Cell{Queue: cell.QueueID(r.word), Seq: r.first&seqMask + uint64(k)}
}

// Queue returns the logical queue of in-flight block blk's cells.
//
//pktbuf:hotpath
func (s *Slab) Queue(blk Block) cell.QueueID { return cell.QueueID(s.rec(blk).word) }

// SetCells makes blk an Unlinked block of queue q whose cell k has
// sequence number first+k (first ≤ MaxSeq).
//
//pktbuf:hotpath
func (s *Slab) SetCells(blk Block, q cell.QueueID, first uint64) {
	r := s.rec(blk)
	r.first, r.word = first, int32(q)
}

// Run returns tail run blk: the sequence number of its first cell and
// its length.
//
//pktbuf:hotpath
func (s *Slab) Run(blk Block) (first uint64, n int32) {
	r := s.rec(blk)
	return r.first, r.word
}

// SetRun makes blk a tail run of n cells starting at sequence number
// first.
//
//pktbuf:hotpath
func (s *Slab) SetRun(blk Block, first uint64, n int32) {
	r := s.rec(blk)
	r.first, r.word = first, n
}

// State returns blk's lifecycle state.
//
//pktbuf:hotpath
func (s *Slab) State(blk Block) State { return State(s.rec(blk).first >> stateShift) }

// setState moves blk to state st.
//
//pktbuf:hotpath
func (s *Slab) setState(blk Block, st State) {
	r := s.rec(blk)
	r.first = r.first&seqMask | uint64(st)<<stateShift
}

// Next returns the block linked after blk (stale unless set).
//
//pktbuf:hotpath
func (s *Slab) Next(blk Block) Block { return s.rec(blk).next }

// SetNext links nxt after blk.
//
//pktbuf:hotpath
func (s *Slab) SetNext(blk, nxt Block) { s.rec(blk).next = nxt }

// ReleaseBlock returns a block the caller owns to the free list. The
// caller must not use the handle or its record afterwards.
//
//pktbuf:hotpath
func (s *Slab) ReleaseBlock(blk Block) {
	s.rec(blk).next = s.free
	s.free = blk
}

// Live reports whether blk names a handle the slab has handed out.
//
//pktbuf:hotpath
func (s *Slab) Live(blk Block) bool { return blk > NoBlock && int32(blk) <= s.blocks }

// AppendCells appends the (queue, seq) pair of each of in-flight block
// blk's cells to a snapshot row. Every section that frames a block in
// flight (DRAM queues, Requests Register entries, completions) writes
// its cells this way; RestoreBlock reads them back.
func (s *Slab) AppendCells(row []int64, blk Block) []int64 {
	r := s.rec(blk)
	q, first := int64(r.word), r.first&seqMask
	for k := range s.blockCells {
		row = append(row, q, int64(first+uint64(k)))
	}
	return row
}

// RestoreBlock acquires a block and fills it from the b (queue, seq)
// pairs of pairs, as AppendCells wrote them. A block is a run of one
// queue's cells: pairs that name two queues, whose sequence numbers
// are not consecutive, or that reach MaxSeq, are rejected with
// frame.ErrFrame, and no block is kept.
func (s *Slab) RestoreBlock(pairs []int64) (Block, error) {
	q, first := pairs[0], uint64(pairs[1])
	if first >= MaxSeq-uint64(s.blockCells) {
		return NoBlock, fmt.Errorf("%w: block seq %d out of range", frame.ErrFrame, pairs[1])
	}
	for k := 1; k < s.blockCells; k++ {
		if pairs[2*k] != q {
			return NoBlock, fmt.Errorf("%w: block rows name queues %d and %d", frame.ErrFrame, q, pairs[2*k])
		}
		if seq := uint64(pairs[2*k+1]); seq != first+uint64(k) {
			return NoBlock, fmt.Errorf("%w: block cell %d has seq %d, want %d", frame.ErrFrame, k, seq, first+uint64(k))
		}
	}
	blk := s.AcquireBlock()
	s.SetCells(blk, cell.QueueID(q), first)
	return blk, nil
}
