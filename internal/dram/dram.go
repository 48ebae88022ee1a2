// Package dram models the banked DRAM system of §4-§5.1: M banks
// organized into G = M/(B/b) groups of B/b banks, block-cyclic
// interleaving of each queue's cells across the banks of its group,
// per-bank busy timing (the random access time), capacity accounting
// per group, and strict conflict detection.
//
// Because the DRAM Scheduler Subsystem (§5.3) may reorder requests —
// including two requests of the *same* queue — accesses are split into
// a reservation step (performed in MMA order, which fixes the block
// ordinal and hence the bank under the block-cyclic interleave) and an
// issue step (performed in DSA order, addressed by ordinal).
//
// Blocks move by descriptor, as in the paper's Requests Register. The
// DRAM's Slab is the buffer's one cell store, from arrival to
// delivery: a cell is written into a slab block once, when it arrives
// in the tail SRAM, and the b-cell block then moves by its int32 Block
// handle — the tail SRAM stages it, BeginWriteAt takes ownership,
// BeginReadAt hands it back, the head SRAM holds it until its last
// cell is delivered, and ReleaseBlock recycles it. Slab chunks are
// allocated whole and never move, so a block's cells stay put for as
// long as it is live, and released handles are reused through a free
// list: the steady-state datapath neither copies a block nor
// allocates. Each queue's ordinal ring stores 4-byte handles.
//
// The model is storage-accurate (it holds the actual cells, so tests
// can verify end-to-end FIFO delivery) and timing-accurate at slot
// granularity (a bank touched at slot t is busy until t+B). It does
// not model rows, columns or refresh: the paper's guarantees are
// expressed purely in terms of the random access time, which already
// upper-bounds activate+precharge overheads.
package dram

import (
	"errors"
	"fmt"

	"repro/internal/arena"
	"repro/internal/bitset"
	"repro/internal/cell"
)

// BankID identifies one DRAM bank, numbered group-major:
// bank = group·(B/b) + indexWithinGroup.
type BankID int32

// NoBank is the sentinel for "no bank".
const NoBank BankID = -1

// Errors reported by the DRAM model. ErrBankConflict signals a
// violated worst-case guarantee (the DSS must make it impossible);
// the others signal resource exhaustion or misuse the caller handles.
var (
	ErrBankConflict = errors.New("dram: bank accessed within its random access time")
	ErrGroupFull    = errors.New("dram: bank group out of capacity")
	ErrQueueEmpty   = errors.New("dram: queue has no readable blocks in DRAM")
	ErrBadBlock     = errors.New("dram: not a block handle of this DRAM")
	ErrBadOrdinal   = errors.New("dram: ordinal not reserved or already used")
)

// Config parameterizes the DRAM system.
type Config struct {
	// Banks is M, the total number of banks.
	Banks int
	// BanksPerGroup is B/b, the number of banks per group (§5.1).
	BanksPerGroup int
	// AccessSlots is the bank random access time in slots (B): a bank
	// touched at slot t cannot be touched again before slot t+B.
	AccessSlots int
	// BlockCells is b, the number of cells per block (the CFDS
	// transfer granularity).
	BlockCells int
	// BankCapacityBlocks is the number of blocks each bank can store.
	// Zero means unbounded (useful for pure-timing tests).
	BankCapacityBlocks int
	// Queues sizes the per-queue state arena at construction (the
	// physical name space P). Zero lets the arena grow on demand —
	// convenient for tests, but production callers should size it so
	// the datapath never grows.
	Queues int
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	switch {
	case c.Banks <= 0:
		return fmt.Errorf("dram: Banks must be positive, got %d", c.Banks)
	case c.BanksPerGroup <= 0:
		return fmt.Errorf("dram: BanksPerGroup must be positive, got %d", c.BanksPerGroup)
	case c.Banks%c.BanksPerGroup != 0:
		return fmt.Errorf("dram: BanksPerGroup=%d must divide Banks=%d", c.BanksPerGroup, c.Banks)
	case c.AccessSlots <= 0:
		return fmt.Errorf("dram: AccessSlots must be positive, got %d", c.AccessSlots)
	case c.BlockCells <= 0:
		return fmt.Errorf("dram: BlockCells must be positive, got %d", c.BlockCells)
	case c.BankCapacityBlocks < 0:
		return fmt.Errorf("dram: BankCapacityBlocks must be non-negative, got %d", c.BankCapacityBlocks)
	case c.Queues < 0:
		return fmt.Errorf("dram: Queues must be non-negative, got %d", c.Queues)
	}
	return nil
}

// Groups returns G, the number of bank groups.
func (c Config) Groups() int { return c.Banks / c.BanksPerGroup }

// Block is a handle to one b-cell block in a DRAM's slab (see the
// package documentation). NoBlock, the zero value, names no block.
type Block int32

// NoBlock is the sentinel for "no block".
const NoBlock Block = 0

// queueState tracks one physical queue's stored blocks plus the
// reservation cursors. The stored blocks live in an ordinal-indexed
// ring window (see blockRing) instead of a hash map: block ordinals
// are dense and monotone, so the window [ring.base, writeReserved)
// addresses every live or in-flight block with one mask, no hashing
// and no per-entry allocation — the datapath probes are pure indexed
// loads. Ordinals below readReserved are consumed or have their read
// in flight; ordinals in [readReserved, writeReserved) are live.
type queueState struct {
	ring blockRing
	// writeReserved is the next block ordinal to assign to a write.
	writeReserved uint64
	// readReserved is the next block ordinal to assign to a read.
	readReserved uint64
	// readsDone counts issued reads, for stats.
	readsDone uint64
}

// blockRing is a power-of-two ring of issued-but-unread block handles
// indexed by block ordinal. base is the lowest ordinal the window may
// still address; slots[ordinal&mask] is NoBlock when the ordinal is
// absent (consumed, or its write not yet issued). The window only
// needs to cover [base, writeReserved); base advances lazily over
// consumed ordinals (empty slots below readReserved), so steady-state
// operation re-uses the same few slots and the ring grows —
// geometrically, off the steady-state path — only when a genuine block
// backlog builds up.
type blockRing struct {
	slots []Block
	base  uint64
}

// get returns the block stored at ordinal, or NoBlock.
func (r *blockRing) get(ordinal uint64) Block {
	if ordinal < r.base || ordinal-r.base >= uint64(len(r.slots)) {
		return NoBlock
	}
	return r.slots[ordinal&uint64(len(r.slots)-1)]
}

// del removes the block at ordinal (a no-op when absent).
func (r *blockRing) del(ordinal uint64) {
	if ordinal < r.base || ordinal-r.base >= uint64(len(r.slots)) {
		return
	}
	r.slots[ordinal&uint64(len(r.slots)-1)] = NoBlock
}

// put stores blk at ordinal, growing the window as needed. consumedLim
// is the caller's readReserved cursor: every empty slot below it is a
// consumed ordinal the base may slide past to make room without
// growing.
func (r *blockRing) put(ordinal uint64, blk Block, consumedLim uint64) {
	if ordinal < r.base {
		// Cannot happen with the DRAM's cursor discipline (writes land
		// at ordinals ≥ readReserved ≥ base); guard for safety.
		panic("dram: block ordinal below ring window")
	}
	if ordinal-r.base >= uint64(len(r.slots)) {
		r.grow(ordinal, consumedLim)
	}
	r.slots[ordinal&uint64(len(r.slots)-1)] = blk
}

// grow makes the window cover ordinal: first the base slides past
// consumed ordinals, then the ring doubles until the span fits.
func (r *blockRing) grow(ordinal, consumedLim uint64) {
	if n := uint64(len(r.slots)); n > 0 {
		for r.base < consumedLim && r.slots[r.base&(n-1)] == NoBlock {
			r.base++
		}
	}
	need := ordinal - r.base + 1
	size := uint64(len(r.slots))
	if size == 0 {
		size = 8
	}
	for size < need {
		size *= 2
	}
	if size == uint64(len(r.slots)) {
		return
	}
	grown := make([]Block, size)
	for o := r.base; o < r.base+uint64(len(r.slots)); o++ {
		grown[o&(size-1)] = r.slots[o&uint64(len(r.slots)-1)]
	}
	r.slots = grown
}

// DRAM is the banked memory system. It is not safe for concurrent use;
// each buffer is ticked by one goroutine by design.
type DRAM struct {
	// Slab holds the cells of every block; the DRAM's rings, the
	// Requests Register and the tail and head SRAMs name them by
	// handle.
	*Slab

	cfg       Config
	busyUntil []cell.Slot  // per bank: busy while now < busyUntil
	groupBlk  []int        // per group: blocks reserved-or-stored
	queues    []queueState // dense arena indexed by physical ordinal

	// groupMask/bankMask replace the per-probe modulo of Group/BankFor
	// with a mask when the respective count is a power of two (-1
	// otherwise): both sit on the per-block datapath (every CanWrite,
	// bank probe and DSS conflict test lands here), where a runtime
	// division is the single most expensive instruction left.
	groups    int
	groupMask int
	bankMask  int

	// readable mirrors ReadableNow per physical queue as a dense
	// hierarchical bitset, updated by every reservation/issue
	// transition. The MMA selectors consume it as their eligibility
	// mask (see ReadableSet), replacing per-candidate map probes.
	readable *bitset.Set

	// accesses counts issued bank accesses, for stats.
	accesses uint64
	// busySlots accumulates bank-busy time (accesses × AccessSlots),
	// for utilization reporting.
	busySlots uint64
}

// New constructs a DRAM from cfg. It panics on invalid configuration;
// callers are expected to Validate first (construction happens at
// setup time, not on the datapath).
func New(cfg Config) *DRAM {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	d := &DRAM{
		Slab:      NewSlab(cfg.BlockCells),
		cfg:       cfg,
		busyUntil: make([]cell.Slot, cfg.Banks),
		groupBlk:  make([]int, cfg.Groups()),
		queues:    make([]queueState, cfg.Queues),
		readable:  bitset.New(cfg.Queues),
		groups:    cfg.Groups(),
		groupMask: -1,
		bankMask:  -1,
	}
	if g := d.groups; g&(g-1) == 0 {
		d.groupMask = g - 1
	}
	if b := cfg.BanksPerGroup; b&(b-1) == 0 {
		d.bankMask = b - 1
	}
	return d
}

// Config returns the configuration the DRAM was built with.
func (d *DRAM) Config() Config { return d.cfg }

// Group returns the bank group a physical queue is statically assigned
// to: the low-order bits of the queue field (Figure 6), i.e. p mod G.
func (d *DRAM) Group(p cell.PhysQueueID) int {
	if d.groupMask >= 0 {
		return int(p) & d.groupMask
	}
	return int(p) % d.groups
}

// BankFor returns the bank that block ordinal k of queue p maps to
// under the block-cyclic interleave of Figure 6.
//
//pktbuf:hotpath
func (d *DRAM) BankFor(p cell.PhysQueueID, ordinal uint64) BankID {
	g := d.Group(p)
	var idx int
	if d.bankMask >= 0 {
		idx = int(ordinal) & d.bankMask
	} else {
		idx = int(ordinal % uint64(d.cfg.BanksPerGroup))
	}
	return BankID(g*d.cfg.BanksPerGroup + idx)
}

// WriteBank returns the bank the *next reserved* write block of queue
// p will target. The DSS uses this to test requests against the ORR.
//
//pktbuf:hotpath
func (d *DRAM) WriteBank(p cell.PhysQueueID) BankID {
	return d.BankFor(p, d.queue(p).writeReserved)
}

// ReadBank returns the bank holding the next unreserved-for-read block
// of queue p, or NoBank if no readable block remains.
//
//pktbuf:hotpath
func (d *DRAM) ReadBank(p cell.PhysQueueID) BankID {
	q := d.queue(p)
	if q.readReserved >= q.writeReserved {
		return NoBank
	}
	return d.BankFor(p, q.readReserved)
}

// BankBusy reports whether bank b is within its random access time at
// slot now.
//
//pktbuf:hotpath
func (d *DRAM) BankBusy(b BankID, now cell.Slot) bool {
	return now < d.busyUntil[b]
}

// CanWrite reports whether queue p's group has room to reserve one
// more block.
//
//pktbuf:hotpath
func (d *DRAM) CanWrite(p cell.PhysQueueID) bool {
	if d.cfg.BankCapacityBlocks == 0 {
		return true
	}
	return d.groupBlk[d.Group(p)] < d.GroupCapacityBlocks()
}

// GroupCapacityBlocks returns the block capacity of one group.
func (d *DRAM) GroupCapacityBlocks() int {
	return d.cfg.BankCapacityBlocks * d.cfg.BanksPerGroup
}

// TotalCapacityBlocks returns the block capacity of the whole DRAM
// (zero if unbounded).
func (d *DRAM) TotalCapacityBlocks() int {
	return d.cfg.BankCapacityBlocks * d.cfg.Banks
}

// GroupOccupancy returns the number of blocks reserved or stored in
// group g.
func (d *DRAM) GroupOccupancy(g int) int { return d.groupBlk[g] }

// TotalOccupancyBlocks returns the number of blocks reserved or stored
// overall.
func (d *DRAM) TotalOccupancyBlocks() int {
	total := 0
	for _, n := range d.groupBlk {
		total += n
	}
	return total
}

// LeastOccupiedGroup returns the group with the fewest stored blocks
// (ties broken toward the lowest index). The renaming allocator uses
// this to balance DRAM occupancy (§6).
//
//pktbuf:hotpath
func (d *DRAM) LeastOccupiedGroup() int {
	best, bestOcc := 0, d.groupBlk[0]
	for g := 1; g < len(d.groupBlk); g++ {
		if d.groupBlk[g] < bestOcc {
			best, bestOcc = g, d.groupBlk[g]
		}
	}
	return best
}

// QueueBlocks returns the number of readable blocks queue p holds
// (reserved writes included, consumed reads excluded).
func (d *DRAM) QueueBlocks(p cell.PhysQueueID) int {
	q := d.queue(p)
	return int(q.writeReserved - q.readReserved)
}

// QueueCells returns the number of readable cells queue p holds.
func (d *DRAM) QueueCells(p cell.PhysQueueID) int {
	return d.QueueBlocks(p) * d.cfg.BlockCells
}

// ReadableNow reports whether the next read reservation for p targets
// a block whose write has already been issued (its cells are in the
// array). The MMA's eligibility test uses this to avoid ordering reads
// that would race their own data. It reads the incrementally
// maintained readable bitset, so the answer is one word probe.
//
//pktbuf:hotpath
func (d *DRAM) ReadableNow(p cell.PhysQueueID) bool {
	return d.readable.Has(int(p))
}

// ReadableSet exposes the per-physical-queue "readable now" bits as a
// dense bitset the MMA selectors AND into their indices. The set is
// owned and kept current by the DRAM; callers must treat it as
// read-only.
func (d *DRAM) ReadableSet() *bitset.Set { return d.readable }

// refreshReadable re-derives p's readable bit from the reservation
// cursors and the stored blocks. Called after every transition that
// can flip it; idempotent.
//
//pktbuf:hotpath
func (d *DRAM) refreshReadable(p cell.PhysQueueID, q *queueState) {
	ok := q.readReserved < q.writeReserved && q.ring.get(q.readReserved) != NoBlock
	if ok {
		d.readable.Set(int(p))
	} else {
		d.readable.Clear(int(p))
	}
}

// Accesses returns the number of bank accesses issued.
func (d *DRAM) Accesses() uint64 { return d.accesses }

// Utilization returns the fraction of aggregate bank-time spent busy
// over the first `now` slots (1.0 = every bank always busy). It
// quantifies how much of the raw DRAM bandwidth the scheduler
// actually exploits — the §4 "potential of bank interleaving".
func (d *DRAM) Utilization(now cell.Slot) float64 {
	if now == 0 {
		return 0
	}
	return float64(d.busySlots) / (float64(now) * float64(d.cfg.Banks))
}

func (d *DRAM) queue(p cell.PhysQueueID) *queueState {
	if int(p) >= len(d.queues) {
		d.queues = arena.Grown(d.queues, int(p)+1)
		d.readable.Grow(len(d.queues))
	}
	return &d.queues[p]
}

// ReserveWrite assigns the next block ordinal (and hence bank) of
// queue p to a pending write and charges the group's capacity. The
// reservation happens in MMA order; the issue may happen later and out
// of order via BeginWriteAt.
func (d *DRAM) ReserveWrite(p cell.PhysQueueID) (ordinal uint64, bank BankID, err error) {
	if !d.CanWrite(p) {
		return 0, NoBank, fmt.Errorf("%w: group %d", ErrGroupFull, d.Group(p))
	}
	q := d.queue(p)
	ordinal = q.writeReserved
	q.writeReserved++
	d.groupBlk[d.Group(p)]++
	d.refreshReadable(p, q)
	return ordinal, d.BankFor(p, ordinal), nil
}

// BeginWriteAt issues the write of a reserved block: the b cells of
// blk are stored at the given ordinal, occupying its bank for
// AccessSlots slots starting at now. On success the DRAM owns blk until
// BeginReadAt hands it back; on error the caller keeps it.
func (d *DRAM) BeginWriteAt(p cell.PhysQueueID, ordinal uint64, blk Block, now cell.Slot) (BankID, error) {
	if !d.live(blk) {
		return NoBank, fmt.Errorf("%w: handle %d", ErrBadBlock, blk)
	}
	q := d.queue(p)
	if ordinal >= q.writeReserved {
		return NoBank, fmt.Errorf("%w: write ordinal %d not reserved (next %d)", ErrBadOrdinal, ordinal, q.writeReserved)
	}
	if q.ring.get(ordinal) != NoBlock {
		return NoBank, fmt.Errorf("%w: write ordinal %d already issued", ErrBadOrdinal, ordinal)
	}
	if ordinal < q.readReserved {
		return NoBank, fmt.Errorf("%w: write ordinal %d already consumed", ErrBadOrdinal, ordinal)
	}
	b := d.BankFor(p, ordinal)
	if d.BankBusy(b, now) {
		return NoBank, fmt.Errorf("%w: bank %d busy until slot %d, write at slot %d",
			ErrBankConflict, b, d.busyUntil[b], now)
	}
	q.ring.put(ordinal, blk, q.readReserved)
	d.busyUntil[b] = now + cell.Slot(d.cfg.AccessSlots)
	d.accesses++
	d.busySlots += uint64(d.cfg.AccessSlots)
	d.refreshReadable(p, q)
	return b, nil
}

// ReserveRead assigns the next readable block ordinal of queue p to a
// pending read. It fails if no block is readable (either the queue is
// drained or the next block's write has not been issued yet).
func (d *DRAM) ReserveRead(p cell.PhysQueueID) (ordinal uint64, bank BankID, err error) {
	q := d.queue(p)
	if q.readReserved >= q.writeReserved {
		return 0, NoBank, fmt.Errorf("%w: physical queue %d", ErrQueueEmpty, p)
	}
	if q.ring.get(q.readReserved) == NoBlock {
		return 0, NoBank, fmt.Errorf("%w: physical queue %d block %d write not yet issued",
			ErrQueueEmpty, p, q.readReserved)
	}
	ordinal = q.readReserved
	q.readReserved++
	d.refreshReadable(p, q)
	return ordinal, d.BankFor(p, ordinal), nil
}

// BeginReadAt issues a reserved read: the block at ordinal is removed
// and its handle returned to the caller, who owns it from then on and
// releases it once its cells have landed; its bank is occupied for
// AccessSlots slots starting at now. The caller models transfer
// latency by delivering the cells to SRAM AccessSlots later.
func (d *DRAM) BeginReadAt(p cell.PhysQueueID, ordinal uint64, now cell.Slot) (BankID, Block, error) {
	q := d.queue(p)
	if ordinal >= q.readReserved {
		return NoBank, NoBlock, fmt.Errorf("%w: read ordinal %d not reserved (next %d)", ErrBadOrdinal, ordinal, q.readReserved)
	}
	blk := q.ring.get(ordinal)
	if blk == NoBlock {
		return NoBank, NoBlock, fmt.Errorf("%w: read ordinal %d absent or already read", ErrBadOrdinal, ordinal)
	}
	b := d.BankFor(p, ordinal)
	if d.BankBusy(b, now) {
		return NoBank, NoBlock, fmt.Errorf("%w: bank %d busy until slot %d, read at slot %d",
			ErrBankConflict, b, d.busyUntil[b], now)
	}
	q.ring.del(ordinal)
	q.readsDone++
	d.busyUntil[b] = now + cell.Slot(d.cfg.AccessSlots)
	d.groupBlk[d.Group(p)]--
	d.accesses++
	d.busySlots += uint64(d.cfg.AccessSlots)
	d.refreshReadable(p, q)
	return b, blk, nil
}
