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

// Slab is the buffer's one cell store: b-cell blocks in chunks that
// are allocated whole and never move, named by Block handles. A cell is
// written into a block once, on arrival in the tail SRAM, and read
// once, on delivery from the head SRAM (or from the tail, on the
// bypass path); in between the block moves from the tail to the
// Requests Register, the DRAM and the head SRAM by handle. Released
// handles are reused through a free list, so a steady stream of blocks
// neither copies nor allocates.
//
// A block holds b cells of one logical queue (§3: the unit moved
// between the SRAMs and the DRAM), so the slab names the queue once
// per block and stores only the b sequence numbers: a resident cell
// costs 8 + 8/b bytes. The per-block record also carries one link,
// Next, which the tail SRAM uses to chain a queue's blocks in arrival
// order.
//
// A Slab is not safe for concurrent use.
type Slab struct {
	blockCells int
	// chunks[k] holds handles [k·chunkBlocks+1, (k+1)·chunkBlocks].
	// blocks counts the handles ever handed out; free holds released
	// ones for reuse.
	chunks []slabChunk
	blocks int32
	free   []Block
}

// slabChunk is one allocation unit: the per-block records and the b
// sequence numbers of each of its chunkBlocks blocks.
type slabChunk struct {
	recs *[chunkBlocks]blockRec
	seqs []uint64
}

// blockRec is a block's 8-byte record: its tail-chain link and the
// logical queue all its cells belong to.
type blockRec struct {
	next  Block
	queue cell.QueueID
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

// AcquireBlock returns a free block, reusing released handles first. A
// reused block retains stale contents, a stale queue and a stale link:
// the caller sets the queue and writes the sequence numbers it will
// read back, and sets the link if it follows it.
func (s *Slab) AcquireBlock() Block {
	if n := len(s.free); n > 0 {
		blk := s.free[n-1]
		s.free = s.free[:n-1]
		return blk
	}
	return s.grow()
}

// grow hands out a never-used handle, adding a chunk when the last one
// is full.
func (s *Slab) grow() Block {
	if int(s.blocks) == len(s.chunks)*chunkBlocks {
		s.chunks = append(s.chunks, slabChunk{
			recs: new([chunkBlocks]blockRec),
			seqs: make([]uint64, chunkBlocks*s.blockCells),
		})
	}
	s.blocks++
	return Block(s.blocks)
}

// rec returns blk's record.
//
//pktbuf:hotpath
func (s *Slab) rec(blk Block) *blockRec {
	i := int(blk) - 1
	return &s.chunks[i>>chunkShift].recs[i&(chunkBlocks-1)]
}

// Seqs returns the b sequence numbers of block blk's cells. The slice
// aliases the slab and stays valid, at the same address, until blk is
// released.
//
//pktbuf:hotpath
func (s *Slab) Seqs(blk Block) []uint64 {
	i := int(blk) - 1
	bc := s.blockCells
	off := (i & (chunkBlocks - 1)) * bc
	return s.chunks[i>>chunkShift].seqs[off : off+bc : off+bc]
}

// Cell returns cell k of block blk: the block's queue and the cell's
// sequence number.
//
//pktbuf:hotpath
func (s *Slab) Cell(blk Block, k int) cell.Cell {
	i := int(blk) - 1
	c := &s.chunks[i>>chunkShift]
	j := i & (chunkBlocks - 1)
	return cell.Cell{Queue: c.recs[j].queue, Seq: c.seqs[j*s.blockCells+k]}
}

// SetSeq writes seq as the sequence number of blk's cell k: the
// one-cell form of Seqs for the per-cell tail SRAM path.
//
//pktbuf:hotpath
func (s *Slab) SetSeq(blk Block, k int, seq uint64) {
	i := int(blk) - 1
	s.chunks[i>>chunkShift].seqs[(i&(chunkBlocks-1))*s.blockCells+k] = seq
}

// Queue returns the logical queue of blk's cells.
//
//pktbuf:hotpath
func (s *Slab) Queue(blk Block) cell.QueueID { return s.rec(blk).queue }

// SetQueue names q as the logical queue of blk's cells.
//
//pktbuf:hotpath
func (s *Slab) SetQueue(blk Block, q cell.QueueID) { s.rec(blk).queue = q }

// SetCells writes cells into blk: their queue, which they must share,
// and their sequence numbers, from cell 0 on. It reports an error, and
// writes nothing, if two cells name different queues.
func (s *Slab) SetCells(blk Block, cells []cell.Cell) error {
	if len(cells) == 0 {
		return nil
	}
	q := cells[0].Queue
	for _, c := range cells[1:] {
		if c.Queue != q {
			return fmt.Errorf("dram: block %d cells name queues %d and %d", blk, q, c.Queue)
		}
	}
	s.SetQueue(blk, q)
	seqs := s.Seqs(blk)
	for k, c := range cells {
		seqs[k] = c.Seq
	}
	return nil
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
// caller must not use the handle or its cells afterwards.
func (s *Slab) ReleaseBlock(blk Block) {
	s.free = append(s.free, blk)
}

// live reports whether blk names a handle the slab has handed out.
func (s *Slab) live(blk Block) bool { return blk > NoBlock && int32(blk) <= s.blocks }

// AppendCells appends the (queue, seq) pair of each of blk's cells to
// a snapshot row. Every section that frames a block in flight (DRAM
// queues, Requests Register entries, completions) writes its cells
// this way; RestoreBlock reads them back.
func (s *Slab) AppendCells(row []int64, blk Block) []int64 {
	q := int64(s.Queue(blk))
	for _, seq := range s.Seqs(blk) {
		row = append(row, q, int64(seq))
	}
	return row
}

// RestoreBlock acquires a block and fills it from the b (queue, seq)
// pairs of pairs, as AppendCells wrote them. A block holds one queue's
// cells: pairs that name two queues are rejected with frame.ErrFrame,
// and no block is kept.
func (s *Slab) RestoreBlock(pairs []int64) (Block, error) {
	q := pairs[0]
	for k := 1; k < s.blockCells; k++ {
		if pairs[2*k] != q {
			return NoBlock, fmt.Errorf("%w: block rows name queues %d and %d", frame.ErrFrame, q, pairs[2*k])
		}
	}
	blk := s.AcquireBlock()
	s.SetQueue(blk, cell.QueueID(q))
	seqs := s.Seqs(blk)
	for k := range seqs {
		seqs[k] = uint64(pairs[2*k+1])
	}
	return blk, nil
}
