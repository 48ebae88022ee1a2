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

// tailQueue is one logical queue's slice of the tail SRAM: n cells,
// the oldest promised of which are committed to the bypass path. A
// queue's cells are consecutive arrivals and leave the tail only from
// the front of one of two classes, so neither class is stored cell by
// cell:
//
//   - the n−promised unpromised cells are always the youngest, the
//     sequence numbers [arrived−(n−promised), arrived) where arrived is
//     the queue's arrival count — counters say them all, and staging
//     takes the b oldest of them as one run block for the DRAM;
//   - the promised cells strictly increase, and form consecutive runs
//     broken only where a staging fell between two promises. The front
//     run — head, head+1, …, headLeft cells still to deliver — is held
//     here, so a queue with one run (every queue on bypass-only
//     traffic) touches no slab block. Each later run is a slab block
//     (dram.Slab.SetRun) on a circular list linked through
//     dram.Slab.Next: last is the youngest run and its link names the
//     oldest.
//
// headLeft is zero exactly when nothing is promised; a queue holds a
// block only while it has two promised runs or more.
type tailQueue struct {
	head                  uint64
	headLeft, n, promised int32
	last                  dram.Block
}

func (t *tailQueue) len() int { return int(t.n) }

// oldest returns the sequence number of t's oldest unpromised cell,
// given the queue's arrival count.
//
//pktbuf:hotpath
func (t *tailQueue) oldest(arrived uint64) uint64 { return arrived - uint64(t.n-t.promised) }

// promise commits the unpromised cell seq (the oldest) to the bypass
// path, extending the youngest run when seq follows it.
//
//pktbuf:hotpath
func (t *tailQueue) promise(s *dram.Slab, seq uint64) {
	t.promised++
	switch {
	case t.headLeft == 0:
		t.head, t.headLeft = seq, 1
		return
	case t.last == dram.NoBlock:
		if t.head+uint64(t.headLeft) == seq {
			t.headLeft++
			return
		}
	default:
		if first, n := s.Run(t.last); first+uint64(n) == seq {
			s.SetRun(t.last, first, n+1)
			return
		}
	}
	blk := s.AcquireBlock()
	s.SetRun(blk, seq, 1)
	if t.last == dram.NoBlock {
		s.SetNext(blk, blk)
	} else {
		s.SetNext(blk, s.Next(t.last))
		s.SetNext(t.last, blk)
	}
	t.last = blk
}

// popFront removes and returns queue q's oldest cell, which is
// promised (the bypass delivery). Once the front run is spent, the
// oldest slab run becomes the front run and its block is released.
//
//pktbuf:hotpath
func (t *tailQueue) popFront(s *dram.Slab, q cell.QueueID) cell.Cell {
	c := cell.Cell{Queue: q, Seq: t.head}
	t.n--
	t.promised--
	t.head++
	if t.headLeft--; t.headLeft == 0 && t.last != dram.NoBlock {
		blk := s.Next(t.last)
		t.head, t.headLeft = s.Run(blk)
		if blk == t.last {
			t.last = dram.NoBlock
		} else {
			s.SetNext(t.last, s.Next(blk))
		}
		s.ReleaseBlock(blk)
	}
	return c
}

// stage removes the b oldest unpromised cells of queue q (the queue
// holds at least b) and returns them as a block for the DRAM.
func (t *tailQueue) stage(s *dram.Slab, q cell.QueueID, arrived uint64) dram.Block {
	blk := s.AcquireBlock()
	s.SetCells(blk, q, t.oldest(arrived))
	t.n -= int32(s.BlockCells())
	return blk
}

// cells calls fn on the sequence number of each of t's cells, oldest
// first: the promised runs, then the unpromised cells.
func (t *tailQueue) cells(s *dram.Slab, arrived uint64, fn func(seq uint64)) {
	for k := range t.headLeft {
		fn(t.head + uint64(k))
	}
	for blk := t.last; blk != dram.NoBlock; {
		blk = s.Next(blk)
		first, n := s.Run(blk)
		for k := range n {
			fn(first + uint64(k))
		}
		if blk == t.last {
			break
		}
	}
	for seq := t.oldest(arrived); seq < arrived; seq++ {
		fn(seq)
	}
}

// kernelState is the structure-of-arrays per-queue state arena: the
// arrival and delivery sequence cursors and the pending-request
// counter, each in its own contiguous word-aligned array indexed by
// the logical queue ordinal. A queue holds arrivedSeq − deliveredSeq
// cells: a dropped arrival is refused before its sequence number is
// taken. Keeping each counter class dense lets the
// round-robin steady state walk sixteen queues per cache line instead
// of two. Only the tail-SRAM queues stay array-of-structs: a promise
// or a pop touches all of one queue's tail fields together.
type kernelState struct {
	arrivedSeq   []uint64
	deliveredSeq []uint64
	pendingReq   []int32
}

func newKernelState(queues int) kernelState {
	return kernelState{
		arrivedSeq:   make([]uint64, queues),
		deliveredSeq: make([]uint64, queues),
		pendingReq:   make([]int32, queues),
	}
}

// completion is a DRAM→SRAM block transfer scheduled to land at a
// future slot: blk, in flight since its read issued, stays in its
// queue's DRAM list through the landing until its last cell is
// popped.
type completion struct {
	ordinal uint64
	phys    cell.PhysQueueID
	blk     dram.Block
}

// bypassEntry is the lookahead tag of a request for logical queue q
// that the tail SRAM serves (a bypass): −2−q, below the idle entry
// cell.NoPhysQueue. The MMA treats every negative entry as idle.
// bypassQueue inverts it.
func bypassEntry(q cell.QueueID) cell.PhysQueueID { return cell.PhysQueueID(-2 - q) }

func bypassQueue(e cell.PhysQueueID) cell.QueueID { return cell.QueueID(-2 - e) }

// pipeRequest decodes e, the pipeline entry at ring index slot, into
// its request: the physical queue (cell.NoPhysQueue for a bypass) and
// the logical queue (cell.NoQueue if the slot is idle).
//
//pktbuf:hotpath
func (b *Buffer) pipeRequest(slot int, e cell.PhysQueueID) (cell.PhysQueueID, cell.QueueID) {
	switch {
	case e == cell.NoPhysQueue:
		return cell.NoPhysQueue, cell.NoQueue
	case e < cell.NoPhysQueue:
		return cell.NoPhysQueue, bypassQueue(e)
	case b.logical != nil:
		return e, b.logical[slot]
	default:
		return e, cell.QueueID(e)
	}
}

// pipeQueue returns the logical queue of the request at pipeline ring
// index slot, or cell.NoQueue if the slot is idle.
func (b *Buffer) pipeQueue(slot int) cell.QueueID {
	_, q := b.pipeRequest(slot, b.look.Entry(slot))
	return q
}

// Buffer is the complete packet buffer (Figure 5). Create one with
// New; drive it with Tick once per slot.
type Buffer struct {
	cfg Config

	dram  *dram.DRAM
	slab  *dram.Slab // the DRAM's, shared with the tail SRAM
	head  sram.Store
	sched *dss.Scheduler
	hmma  mma.HeadMMA
	tmma  *mma.TailMMA
	mapr  mapper

	// look is the request pipeline (latency register + lookahead,
	// §5.4), one entry per slot: idle (cell.NoPhysQueue), the physical
	// queue of a DRAM-bound request, or the bypassEntry tag of a
	// bypass request. Under identity mapping a physical name is its
	// logical queue, so the ring is the whole pipeline. With renaming,
	// logical holds, at the same ring index (look.Head() at entry), the
	// logical queue of each DRAM-bound request; it is nil otherwise.
	look    *mma.Lookahead
	logical []cell.QueueID

	// compIdx (now mod len(compRing)) and phase (now mod Bsmall) are
	// slot-indexed cursors Tick and fastForward advance by
	// wrap-compare (cell.AdvanceCursor), so neither runs a division on
	// a short step; RestoreBuffer re-derives both from now
	// (deriveCursors). Neither is serialised.
	compIdx int
	phase   int

	// ks is the packed per-queue state arena (structure of arrays) and
	// tails the parallel tail-SRAM arena, both indexed by the logical
	// queue ordinal and sized to Config.Q at construction.
	ks        kernelState
	tails     []tailQueue
	tailTotal int // resident cells incl. promised and staged
	// pendingTotal counts admitted requests not yet delivered (the
	// cells in flight through the request pipeline).
	pendingTotal int
	// inPipe counts non-idle entries in the pipeline ring. It
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
		ls, err := sram.NewList(dr, cfg.HeadSRAMCells, d.BanksPerGroup(), physSpace)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadConfig, err)
		}
		head = ls
	default:
		head = sram.NewCAM(dr, cfg.HeadSRAMCells)
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

	var logical []cell.QueueID
	if cfg.Renaming {
		logical = make([]cell.QueueID, pipeLen)
		for i := range logical {
			logical[i] = cell.NoQueue
		}
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
	if q < 0 || int(q) >= len(b.ks.arrivedSeq) {
		return 0
	}
	return int(b.ks.arrivedSeq[q] - b.ks.deliveredSeq[q])
}

// Requestable returns how many cells of q the arbiter may still
// request (cells in the system minus requests already in flight).
func (b *Buffer) Requestable(q cell.QueueID) int {
	if q < 0 || int(q) >= len(b.ks.arrivedSeq) {
		return 0
	}
	return int(b.ks.arrivedSeq[q]-b.ks.deliveredSeq[q]) - int(b.ks.pendingReq[q])
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
			if err := b.head.Land(c.phys, c.ordinal, c.blk); err != nil {
				b.stats.HeadOverflows += uint64(b.cfg.Bsmall)
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
	entry := cell.NoPhysQueue
	if in.Request != cell.NoQueue {
		e, err := b.admitRequest(in.Request)
		recordErr(&firstErr, err)
		entry = e
	}
	slot := b.look.Head()
	phys, q := b.pipeRequest(slot, b.look.Shift(entry))
	if b.logical != nil {
		b.logical[slot] = in.Request
	}
	if entry != cell.NoPhysQueue {
		b.inPipe++
	}

	// 4. Delivery at the pipeline exit.
	if q != cell.NoQueue {
		b.inPipe--
		delivered, bypassed, err := b.deliver(phys, q)
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
// would be a pure time advance: the request pipeline is empty, no
// completion is in flight in the calendar, the Requests
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
// phase are re-derived from now, the (empty) pipeline ring is rotated
// in place, and the DSA cycles the skipped span
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
	b.compIdx = cell.AdvanceCursor(b.compIdx, n, len(b.compRing))
	b.phase = cell.AdvanceCursor(b.phase, n, b.cfg.Bsmall)
	b.stats.FastForwardedSlots += n
}

// deriveCursors sets the slot-indexed cursors from now.
func (b *Buffer) deriveCursors() {
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
	b.ks.arrivedSeq[q]++
	b.tails[q].n++
	b.tailTotal++
	b.tmma.OnArrival(q)
	b.stats.Arrivals++
	return nil
}

// admitRequest validates and translates a scheduler request into its
// pipeline entry. Cells already written toward DRAM route via their
// physical queue; the remainder are promised to the tail-SRAM bypass
// (a bypassEntry tag). A rejected request enters as an idle slot.
func (b *Buffer) admitRequest(q cell.QueueID) (cell.PhysQueueID, error) {
	if b.Requestable(q) <= 0 {
		b.stats.BadRequests++
		return cell.NoPhysQueue, fmt.Errorf("%w: queue %d at slot %d", ErrBadRequest, q, b.now)
	}
	b.ks.pendingReq[q]++
	b.pendingTotal++
	b.stats.Requests++
	phys, ok := b.mapr.ConsumeForRequest(q)
	if !ok {
		// Bypass: commit the oldest unpromised tail cell to direct
		// delivery and remove it from the t-MMA's stageable ledger.
		t := &b.tails[q]
		t.promise(b.slab, t.oldest(b.ks.arrivedSeq[q]))
		b.tmma.OnBypass(q)
		return bypassEntry(q), nil
	}
	b.hmma.OnRequestEnter(phys)
	return phys, nil
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
		c = tq.popFront(b.slab, q)
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
	if err != nil || !b.dram.CanWrite(p) {
		// Raced capacity; treated as a stall, retried next cycle.
		b.stats.TailStalls++
		return nil
	}
	if err := b.mapr.NoteWrite(q, p); err != nil {
		return err
	}
	// Stage first: the reservation links the staged block into p's
	// DRAM list, and with the group's room checked it cannot refuse.
	blk := b.tails[q].stage(b.slab, q, b.ks.arrivedSeq[q])
	ordinal, bank, err := b.dram.ReserveWrite(p, blk)
	if err != nil {
		return fmt.Errorf("core: write reserve for phys %d: %w", p, err)
	}
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
	ordinal, bank, blk, err := b.dram.ReserveRead(p)
	if err != nil {
		return fmt.Errorf("core: replenish reserve for phys %d: %w", p, err)
	}
	b.hmma.OnReplenish(p)
	return b.sched.Enqueue(dss.Request{
		Queue: p, Dir: dss.Read, Ordinal: ordinal, Bank: bank,
		Block: blk, Enqueued: b.now,
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
				return fmt.Errorf("core: DSA write issue: %w", err)
			}
			// The block physically leaves the tail SRAM on the bus: the
			// DRAM now owns its staged handle.
			b.tailTotal -= b.cfg.Bsmall
		case dss.Read:
			if _, err := b.dram.BeginReadAt(r.Queue, r.Ordinal, r.Block, b.now); err != nil {
				return fmt.Errorf("core: DSA read issue: %w", err)
			}
			at := b.compIdx + access
			if at >= len(b.compRing) {
				at -= len(b.compRing)
			}
			b.compRing[at] = append(b.compRing[at], completion{
				phys: r.Queue, ordinal: r.Ordinal, blk: r.Block,
			})
			b.compPending++
		}
	}
	return nil
}
