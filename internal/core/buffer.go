package core

import (
	"errors"
	"fmt"

	"repro/internal/cell"
	"repro/internal/dram"
	"repro/internal/dss"
	"repro/internal/mma"
	"repro/internal/rename"
	"repro/internal/sram"
)

// Invariant and usage errors surfaced by Tick. The Err* invariant
// errors correspond to the paper's worst-case guarantees: a correctly
// dimensioned buffer never produces them, and the test suite asserts
// exactly that.
var (
	// ErrMiss is a head-SRAM miss: the arbiter's request exited the
	// pipeline but its cell was not resident (§3's zero-miss claim).
	ErrMiss = errors.New("core: head SRAM miss")
	// ErrTailOverflow means the tail SRAM exceeded its dimensioned
	// capacity even though the DRAM still had room.
	ErrTailOverflow = errors.New("core: tail SRAM overflow")
	// ErrBufferFull is a usage signal: the buffer (DRAM and tail SRAM)
	// is genuinely out of space and the arriving cell was rejected.
	ErrBufferFull = errors.New("core: buffer full, arrival dropped")
	// ErrBadRequest means the arbiter requested a queue with no
	// outstanding cells — forbidden by the system model (§2).
	ErrBadRequest = errors.New("core: request for empty queue")
	// ErrOutOfOrder means a delivered cell violated per-queue FIFO
	// order — never acceptable.
	ErrOutOfOrder = errors.New("core: out-of-order delivery")
	// ErrUnknownQueue means an arrival named a logical queue outside
	// [0, Q): the dense state arenas are sized from Config at
	// construction, so queue ids are ordinals, not arbitrary keys.
	// (An out-of-range request surfaces as ErrBadRequest — such a
	// queue trivially has nothing requestable.)
	ErrUnknownQueue = errors.New("core: queue id out of range")
	// ErrBadConfig marks a configuration rejected at construction time
	// (New / ApplyDefaults): inconsistent dimensioning parameters, an
	// invalid granularity, or substrate sizes below their minima. Every
	// config-validation failure wraps this sentinel so callers (and the
	// public façade) can errors.Is-match it.
	ErrBadConfig = errors.New("core: invalid configuration")
)

// TickInput carries the per-slot stimulus: at most one arriving cell
// and one scheduler request. Use cell.NoQueue for "none". Queue ids
// must be ordinals in [0, Config.Q).
type TickInput struct {
	// Arrival is the logical queue of the cell arriving this slot.
	Arrival cell.QueueID
	// Request is the logical queue the arbiter requests this slot.
	Request cell.QueueID
}

// TickOutput reports the slot's outcome.
type TickOutput struct {
	// Delivered is the cell granted to the arbiter this slot, if any.
	// The pointee is owned by the Buffer and overwritten by the next
	// Tick; callers that retain the cell beyond that must copy it.
	Delivered *cell.Cell
	// Bypassed reports that the delivery came straight from the tail
	// SRAM (cut-through for queues with no DRAM-bound cells).
	Bypassed bool
}

// tailQueue is one logical queue's slice of the tail SRAM: its cells
// in arrival order, written once into a chain of slab blocks linked by
// dram.Slab.Next — first holds the oldest cell at offset front, last
// the youngest at offset fill−1. The first promised cells are
// committed to the bypass path; staging removes the b oldest
// unpromised cells (DRAM receives cells strictly in arrival order). A
// queue with no cells holds no block.
type tailQueue struct {
	first, last dram.Block
	front, fill int32
	n, promised int32
}

func (t *tailQueue) len() int { return int(t.n) }

// push appends c, taking a new block when the last one is full.
func (t *tailQueue) push(s *dram.Slab, c cell.Cell) {
	if t.n == 0 {
		t.first = s.AcquireBlock()
		t.last, t.front, t.fill = t.first, 0, 0
	} else if int(t.fill) == s.BlockCells() {
		blk := s.AcquireBlock()
		s.SetNext(t.last, blk)
		t.last, t.fill = blk, 0
	}
	*s.At(t.last, int(t.fill)) = c
	t.fill++
	t.n++
}

// popFront removes and returns the oldest cell (the bypass delivery),
// releasing its block once the block is spent.
func (t *tailQueue) popFront(s *dram.Slab) cell.Cell {
	c := *s.At(t.first, int(t.front))
	t.n--
	if t.front++; t.n == 0 || int(t.front) == s.BlockCells() {
		t.dropFront(s)
	}
	return c
}

// dropFront releases the spent front block.
func (t *tailQueue) dropFront(s *dram.Slab) {
	blk := t.first
	if t.n == 0 {
		t.first, t.last = dram.NoBlock, dram.NoBlock
	} else {
		t.first, t.front = s.Next(blk), 0
	}
	s.ReleaseBlock(blk)
}

// stage removes the b oldest unpromised cells (the queue holds at
// least b) and returns them as a block for the DRAM. When nothing is
// promised and the oldest cell starts its block, that block is whole
// and itself leaves the chain by handle. Otherwise the b cells are
// copied into a fresh block and the promised prefix slides b cells
// toward the tail over the vacated positions, streamed through the
// b-cell delay line (the chain links run one way only).
func (t *tailQueue) stage(s *dram.Slab, delay []cell.Cell) dram.Block {
	b := int32(s.BlockCells())
	if t.promised == 0 && t.front == 0 {
		blk := t.first
		t.n -= b
		if t.n == 0 {
			t.first, t.last = dram.NoBlock, dram.NoBlock
		} else {
			t.first = s.Next(blk)
		}
		return blk
	}
	dst := s.AcquireBlock()
	out := s.Cells(dst)
	blk, off, k := t.first, t.front, 0
	cells := s.Cells(blk)
	for j, end := int32(0), t.promised+b; j < end; j++ {
		orig := cells[off]
		if j >= t.promised {
			out[j-t.promised] = orig
		}
		if j >= b {
			cells[off] = delay[k]
		}
		delay[k] = orig
		if k++; k == int(b) {
			k = 0
		}
		if off++; off == b && j+1 < end {
			blk, off = s.Next(blk), 0
			cells = s.Cells(blk)
		}
	}
	// The b vacated positions are now the oldest: drop them. front < b,
	// so exactly the first block is spent.
	next := s.Next(t.first)
	s.ReleaseBlock(t.first)
	t.first = next
	if t.n -= b; t.n == 0 {
		t.dropFront(s)
	}
	return dst
}

// cells calls fn on each of t's cells, oldest first.
func (t *tailQueue) cells(s *dram.Slab, fn func(cell.Cell)) {
	blk, off := t.first, t.front
	for i := int32(0); i < t.n; i++ {
		fn(*s.At(blk, int(off)))
		if off++; int(off) == s.BlockCells() {
			blk, off = s.Next(blk), 0
		}
	}
}

// kernelState is the structure-of-arrays per-queue state arena: the
// arrival and delivery sequence cursors and the occupancy/pending
// counters, each in its own contiguous word-aligned array indexed by
// the logical queue ordinal. Keeping each counter class dense lets the
// round-robin steady state walk sixteen queues per cache line instead
// of two. Only the tail-SRAM chains stay array-of-structs: a push or a
// pop touches all of one queue's chain fields together.
type kernelState struct {
	arrivedSeq   []uint64
	deliveredSeq []uint64
	sysOcc       []int32
	pendingReq   []int32
}

func newKernelState(queues int) kernelState {
	return kernelState{
		arrivedSeq:   make([]uint64, queues),
		deliveredSeq: make([]uint64, queues),
		sysOcc:       make([]int32, queues),
		pendingReq:   make([]int32, queues),
	}
}

// completion is a DRAM→SRAM block transfer scheduled to land at a
// future slot. blk is the block BeginReadAt handed back; it returns to
// the DRAM's slab when its cells land.
type completion struct {
	ordinal uint64
	phys    cell.PhysQueueID
	blk     dram.Block
}

// pipeEntry pairs the physical name stored in the lookahead with the
// logical request it translates (the logical side is needed for the
// bypass path and FIFO verification).
type pipeEntry struct {
	logical cell.QueueID
}

// Buffer is the complete packet buffer (Figure 5). Create one with
// New; drive it with Tick once per slot.
type Buffer struct {
	cfg Config

	dram  *dram.DRAM
	slab  *dram.Slab // the DRAM's, shared by the tail and head SRAMs
	head  sram.Store
	sched *dss.Scheduler
	hmma  mma.HeadMMA
	tmma  *mma.TailMMA
	mapr  mapper

	// look holds the physical-side pipeline (latency register +
	// lookahead, §5.4); logical is the parallel logical-side ring.
	look    *mma.Lookahead
	logical []pipeEntry
	logHead int

	// compIdx (now mod len(compRing)) and phase (now mod Bsmall) are,
	// like logHead (now mod len(logical)), slot-indexed cursors Tick
	// and fastForward advance by wrap-compare (cell.AdvanceCursor), so
	// neither runs a division on a short step; RestoreBuffer re-derives
	// all three from now (deriveCursors). compIdx and phase are not
	// serialised.
	compIdx int
	phase   int

	// ks is the packed per-queue state arena (structure of arrays) and
	// tails the parallel tail-SRAM chain arena, both indexed by the
	// logical queue ordinal and sized to Config.Q at construction.
	// delay is the b-cell scratch line tailQueue.stage slides promised
	// cells through.
	ks        kernelState
	tails     []tailQueue
	delay     []cell.Cell
	tailTotal int // resident cells incl. promised and staged
	// pendingTotal counts admitted requests not yet delivered (the
	// cells in flight through the request pipeline).
	pendingTotal int
	// inPipe counts non-idle entries in the logical pipeline ring. It
	// differs from pendingTotal only after a miss (the entry left the
	// ring but the delivery never completed); the quiescence predicate
	// uses it because ring emptiness, not delivery accounting, is what
	// makes an idle shift a pure rotation.
	inPipe int
	// compPending counts DRAM→SRAM completions waiting in compRing.
	compPending int

	// compRing is the completion calendar: a fixed ring of length
	// accessSlots+1 indexed by slot mod length. Slot buckets are
	// truncated (capacity kept) after landing, so the steady-state
	// read path does not allocate.
	compRing [][]completion
	// access is the bank random access time in slots
	// (Config.accessSlots, fixed at construction).
	access int

	now cell.Slot
	// delivered is the scratch cell TickOutput.Delivered points into.
	delivered cell.Cell

	// writeEligible is the t-MMA selection predicate, built once at
	// construction (closures created per cycle escape through the MMA
	// interface call and would allocate every b slots). It is nil when
	// the write path can never stall — identity mapping over an
	// unbounded DRAM — so the t-MMA walks its index with no
	// per-candidate calls at all. The h-MMA predicate needs no closure:
	// the DRAM publishes its readable-now bits as a dense bitset that
	// the head selectors consume directly (SetEligibility).
	writeEligible func(q cell.QueueID) bool

	stats Stats
}

// New builds a buffer from cfg (ApplyDefaults is invoked internally,
// so a minimal Config works).
func New(cfg Config) (*Buffer, error) {
	cfg, err := cfg.ApplyDefaults()
	if err != nil {
		return nil, err
	}
	d := cfg.Dimension()

	// The dense arenas are sized from the physical name space P: the
	// logical space Q without renaming, or the register-bounded ordinal
	// space the rename table hands out (§6 oversubscription, A·Q names
	// rounded up to whole groups).
	physSpace := cfg.Q
	var tbl *rename.Table
	if cfg.Renaming {
		namesPerGroup := (cfg.Q*cfg.Oversub + d.Groups() - 1) / d.Groups()
		tbl, err = rename.New(d.Groups(), namesPerGroup, cfg.RegisterCap, cfg.Bsmall)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadConfig, err)
		}
		physSpace = d.Groups() * namesPerGroup
		// Renaming keeps physical ids dense: every name is an ordinal
		// in [0, P). The arenas below rely on that, so check it here
		// rather than discover it as an index panic on the datapath.
		if tbl.TotalNames() != physSpace || physSpace < cfg.Q {
			return nil, fmt.Errorf("core: physical name space %d inconsistent (Q=%d, groups=%d)",
				tbl.TotalNames(), cfg.Q, d.Groups())
		}
	}

	dcfg := dram.Config{
		Banks:              cfg.Banks,
		BanksPerGroup:      d.BanksPerGroup(),
		AccessSlots:        cfg.accessSlots(),
		BlockCells:         cfg.Bsmall,
		BankCapacityBlocks: cfg.BankCapacityBlocks,
		Queues:             physSpace,
	}
	if err := dcfg.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadConfig, err)
	}

	dr := dram.New(dcfg)
	var head sram.Store
	switch cfg.Org {
	case OrgLinkedList:
		ls, err := sram.NewList(dr.Slab, cfg.HeadSRAMCells, d.BanksPerGroup(), physSpace)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadConfig, err)
		}
		head = ls
	default:
		head = sram.NewCAM(dr.Slab, cfg.HeadSRAMCells, physSpace)
	}

	pipeLen := cfg.Lookahead + cfg.LatencySlots
	if pipeLen < 1 {
		pipeLen = 1
	}
	look, err := mma.NewLookahead(pipeLen)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadConfig, err)
	}

	var hm mma.HeadMMA
	switch cfg.MMA {
	case MDQF:
		m, err := mma.NewMDQF(cfg.Bsmall, physSpace)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadConfig, err)
		}
		hm = m
	default:
		e, err := mma.NewECQF(look, cfg.Bsmall, physSpace)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadConfig, err)
		}
		hm = e
	}

	tm, err := mma.NewTailMMA(cfg.Bsmall, cfg.Q)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadConfig, err)
	}

	var mp mapper
	if cfg.Renaming {
		mp = &renameMapper{table: tbl, dram: dr}
	} else {
		mp = newIdentityMapper(dr, cfg.Q)
	}

	logical := make([]pipeEntry, pipeLen)
	for i := range logical {
		logical[i].logical = cell.NoQueue
	}
	policy := dss.OldestReadyFirst
	if cfg.FIFOScheduler {
		policy = dss.FIFOBlocking
	}
	buf := &Buffer{
		cfg:      cfg,
		dram:     dr,
		slab:     dr.Slab,
		head:     head,
		sched:    dss.NewWithPolicy(cfg.RRCapacity, policy),
		hmma:     hm,
		tmma:     tm,
		mapr:     mp,
		look:     look,
		logical:  logical,
		ks:       newKernelState(cfg.Q),
		tails:    make([]tailQueue, cfg.Q),
		delay:    make([]cell.Cell, cfg.Bsmall),
		compRing: make([][]completion, dcfg.AccessSlots+1),
		access:   dcfg.AccessSlots,
	}
	// The head MMA selects against the DRAM's readable-now bitset in
	// place of per-candidate eligibility calls.
	hm.SetEligibility(dr.ReadableSet())
	if cfg.BankCapacityBlocks == 0 && !cfg.Renaming {
		// Identity mapping over an unbounded DRAM: PeekWriteTarget can
		// never fail, so the t-MMA runs unmasked.
		buf.writeEligible = nil
	} else {
		buf.writeEligible = func(q cell.QueueID) bool {
			_, err := buf.mapr.PeekWriteTarget(q)
			return err == nil
		}
	}
	return buf, nil
}

// Config returns the fully defaulted configuration in use.
func (b *Buffer) Config() Config { return b.cfg }

// Now returns the current slot (the number of Ticks performed).
func (b *Buffer) Now() cell.Slot { return b.now }

// Len returns the number of cells of queue q currently in the buffer.
func (b *Buffer) Len(q cell.QueueID) int {
	if q < 0 || int(q) >= len(b.ks.sysOcc) {
		return 0
	}
	return int(b.ks.sysOcc[q])
}

// Requestable returns how many cells of q the arbiter may still
// request (cells in the system minus requests already in flight).
func (b *Buffer) Requestable(q cell.QueueID) int {
	if q < 0 || int(q) >= len(b.ks.sysOcc) {
		return 0
	}
	return int(b.ks.sysOcc[q] - b.ks.pendingReq[q])
}

// PendingRequests returns the number of admitted requests still in
// flight through the pipeline (requested but not yet delivered). A
// drain loop may stop as soon as this reaches zero with no further
// requests issued.
func (b *Buffer) PendingRequests() int { return b.pendingTotal }

// ArrivedSeq returns the number of cells that have ever arrived for
// queue q — equivalently, the Seq the next arrival to q will be
// assigned. Samplers that attach to a buffer mid-run (for example the
// latency tracker) use it to align with the per-queue numbering.
func (b *Buffer) ArrivedSeq(q cell.QueueID) uint64 {
	if q < 0 || int(q) >= len(b.ks.arrivedSeq) {
		return 0
	}
	return b.ks.arrivedSeq[q]
}

// DeliveredSeq returns the number of cells ever delivered for queue q
// — equivalently, the Seq the next delivery of q will carry.
// Restore-time reconciliation (the serve package's session resumption)
// compares it against a client's received count to decide what to
// redeliver.
func (b *Buffer) DeliveredSeq(q cell.QueueID) uint64 {
	if q < 0 || int(q) >= len(b.ks.deliveredSeq) {
		return 0
	}
	return b.ks.deliveredSeq[q]
}

// Stats returns a snapshot of the accumulated statistics.
func (b *Buffer) Stats() Stats {
	s := b.stats
	s.DSS = b.sched.Stats()
	s.HeadHighWater = b.head.HighWater()
	return s
}

// recordErr keeps the first non-nil error of a slot; later errors of
// the same slot are dropped (the slot still completes, matching the
// hardware model where a violation is flagged but the clock advances).
func recordErr(dst *error, err error) {
	if err != nil && *dst == nil {
		*dst = err
	}
}

// Tick advances the buffer by one slot. Errors wrapping the Err*
// invariant sentinels indicate a violated worst-case guarantee;
// ErrBufferFull / ErrBadRequest indicate caller-visible conditions
// (the slot still completes: deliveries and internal transfers occur).
// It is the engine's one slot body: pktbuf.Buffer.TickBatch and the
// router call it once per ticked slot.
//
//pktbuf:hotpath
func (b *Buffer) Tick(in TickInput) (TickOutput, error) {
	var out TickOutput
	var firstErr error

	// 1. Land DRAM→SRAM transfers completing this slot, before the
	// delivery point ("perfectly synchronized hardware", §3). The
	// completion calendar is a fixed ring indexed by slot.
	// A landing block moves into the head SRAM by handle.
	if pending := b.compRing[b.compIdx]; len(pending) > 0 {
		for _, c := range pending {
			if n, err := b.head.Land(c.phys, c.ordinal, c.blk); n > 0 {
				b.stats.HeadOverflows += uint64(n)
				recordErr(&firstErr, fmt.Errorf("head SRAM insert: %w", err))
			}
		}
		b.compPending -= len(pending)
		b.compRing[b.compIdx] = pending[:0]
	}

	// 2. Arrival.
	if in.Arrival != cell.NoQueue {
		recordErr(&firstErr, b.arrive(in.Arrival))
	}

	// 3. Request enters the pipeline; the pipeline shifts exactly once
	// per slot, so idle slots propagate bubbles.
	phys := cell.NoPhysQueue
	logical := cell.NoQueue
	if in.Request != cell.NoQueue {
		p, lq, err := b.admitRequest(in.Request)
		recordErr(&firstErr, err)
		phys, logical = p, lq
	}
	outPhys := b.look.Shift(phys)
	outEntry := b.logical[b.logHead]
	b.logical[b.logHead] = pipeEntry{logical: logical}
	if b.logHead++; b.logHead == len(b.logical) {
		b.logHead = 0
	}
	if logical != cell.NoQueue {
		b.inPipe++
	}

	// 4. Delivery at the pipeline exit.
	if outEntry.logical != cell.NoQueue {
		b.inPipe--
		delivered, bypassed, err := b.deliver(outPhys, outEntry.logical)
		recordErr(&firstErr, err)
		if delivered != nil {
			out.Delivered = delivered
			out.Bypassed = bypassed
		}
	}

	// 5. MMA cycle every b slots; DSA issues are staggered across the
	// cycle so that the write and read access of one window hit the
	// DRAM a random-access-time apart (the paper's RADS alternates
	// accesses every T_RC; CFDS overlaps them across banks).
	bs := b.cfg.Bsmall
	phase := b.phase
	if phase == bs-1 {
		recordErr(&firstErr, b.tailCycle())
		recordErr(&firstErr, b.headCycle())
	}
	if bs == 1 {
		recordErr(&firstErr, b.dsaCycle(b.cfg.IssuesPerCycle))
	} else if phase == bs-1 || phase == bs/2-1 {
		recordErr(&firstErr, b.dsaCycle((b.cfg.IssuesPerCycle+1)/2))
	}

	if b.tailTotal > b.stats.TailHighWater {
		b.stats.TailHighWater = b.tailTotal
	}
	b.now++
	if b.compIdx++; b.compIdx == len(b.compRing) {
		b.compIdx = 0
	}
	if b.phase++; b.phase == bs {
		b.phase = 0
	}
	return out, firstErr
}

// Quiescent reports whether an idle Tick (no arrival, no request)
// would be a pure time advance: the request pipeline and logical ring
// are empty, no completion is in flight in the calendar, the Requests
// Register is empty (and not a zero-capacity degenerate that stalls
// every cycle), and neither MMA would order a transfer. In a
// quiescent state an idle Tick changes nothing but the slot counter
// and the DSS empty-cycle count — which is exactly what FastForward
// reproduces analytically — and quiescence is stable: no idle Tick
// can leave it.
func (b *Buffer) Quiescent() bool {
	if b.inPipe != 0 || b.compPending != 0 || b.sched.Len() != 0 || !b.sched.CanEnqueue() {
		return false
	}
	// Both Selects are pure probes of the incrementally maintained
	// indices. Their answers cannot change across idle slots: every
	// state they read moves only through arrivals, requests or the
	// in-flight work ruled out above.
	if _, ok := b.tmma.Select(b.writeEligible); ok {
		return false
	}
	if _, ok := b.hmma.Select(nil); ok {
		return false
	}
	return true
}

// FastForward advances the buffer by n idle slots in O(1). It is
// bit-identical to calling Tick n times with an idle TickInput from a
// quiescent state — identical statistics (FastForwardedSlots aside,
// which dense ticking leaves zero by definition) and identical
// subsequent behavior: the completion-ring index and the MMA cycle
// phase are re-derived from now, the (empty) lookahead and logical
// rings are rotated in place, and the DSA cycles the skipped span
// would have run on an empty Requests Register are credited to the
// DSS empty-cycle count. If the buffer is not quiescent nothing
// happens; the number of slots actually skipped (n or 0) is returned.
func (b *Buffer) FastForward(n uint64) uint64 {
	if n == 0 || !b.Quiescent() {
		return 0
	}
	b.fastForward(n)
	return n
}

// fastForward performs the jump; the caller has established
// quiescence.
func (b *Buffer) fastForward(n uint64) {
	b.sched.SkipIdleCycles(dsaCyclesIn(uint64(b.phase), n, b.cfg.Bsmall))
	b.look.FastForward(n)
	b.now += cell.Slot(n)
	b.logHead = cell.AdvanceCursor(b.logHead, n, len(b.logical))
	b.compIdx = cell.AdvanceCursor(b.compIdx, n, len(b.compRing))
	b.phase = cell.AdvanceCursor(b.phase, n, b.cfg.Bsmall)
	b.stats.FastForwardedSlots += n
}

// deriveCursors sets the slot-indexed cursors from now.
func (b *Buffer) deriveCursors() {
	b.logHead = int(uint64(b.now) % uint64(len(b.logical)))
	b.compIdx = int(uint64(b.now) % uint64(len(b.compRing)))
	b.phase = int(uint64(b.now) % uint64(b.cfg.Bsmall))
}

// dsaCyclesIn counts the DSA scheduling cycles Tick would run over the
// n slots starting at MMA cycle phase phase (< bs): every slot when
// b=1, otherwise the two stagger phases b-1 and b/2-1 of each b-slot
// cycle. Each whole cycle holds both once; the tail of n%bs slots
// holds those it reaches.
func dsaCyclesIn(phase, n uint64, bs int) uint64 {
	if bs == 1 {
		return n
	}
	m := uint64(bs)
	whole, tail := uint64(0), n
	if n >= m {
		whole, tail = n/m, n%m
	}
	return 2*whole + phaseIn(phase, tail, m, m-1) + phaseIn(phase, tail, m, m/2-1)
}

// phaseIn reports (as 0 or 1) whether the span of tail < m slots
// starting at phase reaches phase r.
func phaseIn(phase, tail, m, r uint64) uint64 {
	off := r - phase
	if r < phase {
		off += m
	}
	if off < tail {
		return 1
	}
	return 0
}

// arrive admits one cell into the tail SRAM.
func (b *Buffer) arrive(q cell.QueueID) error {
	if q < 0 || int(q) >= len(b.tails) {
		return fmt.Errorf("%w: arrival for queue %d (Q=%d)", ErrUnknownQueue, q, len(b.tails))
	}
	if b.tailTotal >= b.cfg.TailSRAMCells {
		// With a bounded DRAM the tail bound is conditional: any queue
		// blocked from writing (a full group without renaming, or §6's
		// residual fragmentation with it) legitimately backs cells up
		// into the tail SRAM, so the overflow is backpressure. With an
		// unbounded DRAM the t-MMA can always drain and an overflow is
		// a violated dimensioning bound.
		b.stats.Drops++
		if b.cfg.BankCapacityBlocks > 0 {
			return fmt.Errorf("%w: queue %d at slot %d", ErrBufferFull, q, b.now)
		}
		return fmt.Errorf("%w: %d cells at slot %d", ErrTailOverflow, b.tailTotal, b.now)
	}
	seq := b.ks.arrivedSeq[q]
	b.ks.arrivedSeq[q] = seq + 1
	b.tails[q].push(b.slab, cell.Cell{Queue: q, Seq: seq})
	b.tailTotal++
	b.tmma.OnArrival(q)
	b.ks.sysOcc[q]++
	b.stats.Arrivals++
	return nil
}

// admitRequest validates and translates a scheduler request. Cells
// already written toward DRAM route via their physical queue; the
// remainder are promised to the tail-SRAM bypass.
func (b *Buffer) admitRequest(q cell.QueueID) (cell.PhysQueueID, cell.QueueID, error) {
	if b.Requestable(q) <= 0 {
		b.stats.BadRequests++
		return cell.NoPhysQueue, cell.NoQueue,
			fmt.Errorf("%w: queue %d at slot %d", ErrBadRequest, q, b.now)
	}
	b.ks.pendingReq[q]++
	b.pendingTotal++
	b.stats.Requests++
	phys, ok := b.mapr.ConsumeForRequest(q)
	if !ok {
		// Bypass: commit the oldest unpromised tail cell to direct
		// delivery and remove it from the t-MMA's stageable ledger.
		b.tails[q].promised++
		b.tmma.OnBypass(q)
		return cell.NoPhysQueue, q, nil
	}
	b.hmma.OnRequestEnter(phys)
	return phys, q, nil
}

// deliver pops the cell for a request exiting the pipeline, storing it
// in b.delivered (the scratch the returned pointer aliases).
//
//pktbuf:hotpath
func (b *Buffer) deliver(phys cell.PhysQueueID, q cell.QueueID) (*cell.Cell, bool, error) {
	var c cell.Cell
	bypassed := false
	if phys == cell.NoPhysQueue {
		// Bypass delivery from the tail SRAM front.
		tq := &b.tails[q]
		if tq.len() == 0 || tq.promised == 0 {
			b.stats.Misses++
			return nil, false, fmt.Errorf("%w: bypass for queue %d at slot %d finds no cell",
				ErrMiss, q, b.now) //pktbuf:allow hotpath-noalloc cold invariant-violation path; allocates only when the slot already failed
		}
		c = tq.popFront(b.slab)
		tq.promised--
		b.tailTotal--
		bypassed = true
	} else {
		popped, err := b.head.Pop(phys)
		if err != nil {
			b.stats.Misses++
			return nil, false, fmt.Errorf("%w: queue %d (phys %d) at slot %d: %v",
				ErrMiss, q, phys, b.now, err) //pktbuf:allow hotpath-noalloc cold invariant-violation path; allocates only when the slot already failed
		}
		c = popped
	}

	b.delivered = c
	want := b.ks.deliveredSeq[q]
	if c.Queue != q || c.Seq != want {
		return &b.delivered, bypassed, fmt.Errorf("%w: queue %d got %v, want seq %d",
			ErrOutOfOrder, q, c, want) //pktbuf:allow hotpath-noalloc cold invariant-violation path; allocates only when the slot already failed
	}
	b.ks.deliveredSeq[q] = want + 1
	b.ks.sysOcc[q]--
	b.ks.pendingReq[q]--
	b.pendingTotal--
	b.stats.Deliveries++
	if bypassed {
		b.stats.Bypasses++
	}
	return &b.delivered, bypassed, nil
}

// tailCycle runs the t-MMA: stage one block of b cells toward DRAM.
func (b *Buffer) tailCycle() error {
	if !b.sched.CanEnqueue() {
		b.stats.TailStalls++
		return nil
	}
	q, ok := b.tmma.Select(b.writeEligible)
	if !ok {
		return nil
	}
	p, err := b.mapr.WriteTarget(q)
	if err != nil {
		// Raced capacity; treated as a stall, retried next cycle.
		b.stats.TailStalls++
		return nil
	}
	ordinal, bank, err := b.dram.ReserveWrite(p)
	if err != nil {
		b.stats.TailStalls++
		return nil
	}
	if err := b.mapr.NoteWrite(q, p); err != nil {
		return err
	}
	blk := b.tails[q].stage(b.slab, b.delay)
	b.tmma.OnTransfer(q)
	return b.sched.Enqueue(dss.Request{
		Queue: p, Dir: dss.Write, Ordinal: ordinal, Bank: bank,
		Block: blk, Enqueued: b.now,
	})
}

// headCycle runs the h-MMA: order one replenishment of b cells.
func (b *Buffer) headCycle() error {
	if !b.sched.CanEnqueue() {
		b.stats.HeadStalls++
		return nil
	}
	// Eligibility comes from the DRAM's readable bitset installed at
	// construction, so no per-candidate closure is passed.
	p, ok := b.hmma.Select(nil)
	if !ok {
		return nil
	}
	ordinal, bank, err := b.dram.ReserveRead(p)
	if err != nil {
		return fmt.Errorf("core: replenish reserve for phys %d: %w", p, err)
	}
	b.hmma.OnReplenish(p)
	return b.sched.Enqueue(dss.Request{
		Queue: p, Dir: dss.Read, Ordinal: ordinal, Bank: bank, Enqueued: b.now,
	})
}

// dsaCycle issues up to budget requests through the DSA and executes
// them against the DRAM.
func (b *Buffer) dsaCycle(budget int) error {
	access := b.access
	for _, r := range b.sched.Cycle(b.now, budget, access) {
		switch r.Dir {
		case dss.Write:
			if _, err := b.dram.BeginWriteAt(r.Queue, r.Ordinal, r.Block, b.now); err != nil {
				b.dram.ReleaseBlock(r.Block)
				return fmt.Errorf("core: DSA write issue: %w", err)
			}
			// The block physically leaves the tail SRAM on the bus: the
			// DRAM now owns its staged handle.
			b.tailTotal -= b.cfg.Bsmall
		case dss.Read:
			_, blk, err := b.dram.BeginReadAt(r.Queue, r.Ordinal, b.now)
			if err != nil {
				return fmt.Errorf("core: DSA read issue: %w", err)
			}
			at := b.compIdx + access
			if at >= len(b.compRing) {
				at -= len(b.compRing)
			}
			b.compRing[at] = append(b.compRing[at], completion{
				phys: r.Queue, ordinal: r.Ordinal, blk: blk,
			})
			b.compPending++
		}
	}
	return nil
}
