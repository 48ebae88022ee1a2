package dram

import "repro/internal/cell"

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
// Each block also carries one link, Next, which the tail SRAM uses to
// chain a queue's blocks in arrival order.
//
// A Slab is not safe for concurrent use.
type Slab struct {
	blockCells int
	// chunks[k] holds the cells of handles [k·chunkBlocks+1,
	// (k+1)·chunkBlocks], b cells each; next[h-1] is handle h's link.
	// blocks counts the handles ever handed out; free holds released
	// ones for reuse.
	chunks [][]cell.Cell
	next   []Block
	blocks int32
	free   []Block
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
// reused block retains stale contents and a stale link: the caller
// writes the cells it will read back (Cells) and sets the link if it
// follows it.
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
		s.chunks = append(s.chunks, make([]cell.Cell, chunkBlocks*s.blockCells))
	}
	s.blocks++
	s.next = append(s.next, NoBlock)
	return Block(s.blocks)
}

// Cells returns the b cells of block blk. The slice aliases the slab
// and stays valid, at the same address, until blk is released.
//
//pktbuf:hotpath
func (s *Slab) Cells(blk Block) []cell.Cell {
	i := int(blk) - 1
	bc := s.blockCells
	off := (i & (chunkBlocks - 1)) * bc
	return s.chunks[i>>chunkShift][off : off+bc : off+bc]
}

// At returns cell k of block blk, in place: the one-cell form of
// Cells for the per-cell tail and head SRAM paths.
//
//pktbuf:hotpath
func (s *Slab) At(blk Block, k int) *cell.Cell {
	i := int(blk) - 1
	return &s.chunks[i>>chunkShift][(i&(chunkBlocks-1))*s.blockCells+k]
}

// Next returns the block linked after blk (NoBlock if none was set).
//
//pktbuf:hotpath
func (s *Slab) Next(blk Block) Block { return s.next[blk-1] }

// SetNext links nxt after blk.
//
//pktbuf:hotpath
func (s *Slab) SetNext(blk, nxt Block) { s.next[blk-1] = nxt }

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
	for _, c := range s.Cells(blk) {
		row = append(row, int64(c.Queue), int64(c.Seq))
	}
	return row
}

// RestoreBlock acquires a block and fills it from the b (queue, seq)
// pairs of pairs, as AppendCells wrote them.
func (s *Slab) RestoreBlock(pairs []int64) Block {
	blk := s.AcquireBlock()
	cells := s.Cells(blk)
	for k := range cells {
		cells[k] = cell.Cell{Queue: cell.QueueID(pairs[2*k]), Seq: uint64(pairs[2*k+1])}
	}
	return blk
}
