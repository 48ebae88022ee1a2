// Package router assembles the paper's system context (Figure 1): an
// input-queued router whose every input line card carries a VOQ packet
// buffer (internal/core), fed by the cell segmentation layer
// (internal/packet) and drained by an iSLIP-style request-grant-accept
// fabric scheduler. Output ports reassemble cells into packets.
//
// The router is the "example application" the paper motivates — it is
// also the harshest client of the buffer's guarantees: the fabric
// scheduler's per-slot requests form exactly the adversarial patterns
// (§3) the buffer must absorb, and any miss, conflict or reorder
// surfaces as a corrupted packet at an output port.
//
// A slot is one iSLIP request-grant-accept exchange (islip.schedule)
// followed by tickPort for every port in input order: the port's
// ingress, its buffer tick, and the delivered cell's fabric crossing
// and output reassembly. The whole router runs on the caller's
// goroutine; a line card's work between two scheduler exchanges
// (~400 ns) is far too fine a grain to hand to another goroutine, and
// every parallel variant measured slower than this one (README, "Why
// the engine is serial").
//
// All per-cell metadata lives in dense slice-indexed arenas: per-VOQ
// compacting deques keyed by the delivery sequence order the buffer
// guarantees, so the steady-state Step path performs no hashing and no
// allocation.
package router

import (
	"errors"
	"fmt"

	"repro/internal/cell"
	"repro/internal/core"
	"repro/internal/packet"
)

// Config describes the router.
type Config struct {
	// Ports is the number of input (= output) ports.
	Ports int
	// Classes is the number of service classes; each input buffer
	// holds Ports×Classes VOQs (§2: "Each logical queue corresponds to
	// an output line interface and a class of service").
	Classes int
	// Buffer is the per-input packet buffer template; its Q field is
	// overwritten with Ports×Classes.
	Buffer core.Config
	// SchedulerIterations is the number of iSLIP iterations per slot
	// (≥1; more iterations converge closer to a maximal matching).
	SchedulerIterations int
	// IngressCap bounds each input's pre-segmentation cell backlog
	// (0 = a generous default of 4096 cells).
	IngressCap int
}

// Errors returned by the router. Config rejections wrap
// core.ErrBadConfig so callers (and the public façade) dispatch on one
// taxonomy with errors.Is.
var (
	ErrIngressFull = errors.New("router: ingress backlog full")
	ErrBadPort     = errors.New("router: port out of range")
	ErrBadFlow     = errors.New("router: packet flow out of range")
	ErrClosed      = errors.New("router: engine closed")
)

// Egress is one packet leaving the router.
type Egress struct {
	// Output is the egress port.
	Output int
	// Input is the port the packet entered on.
	Input int
	// Packet is the reassembled packet (Flow = output×classes+class,
	// as offered). Its payload lives in the router's egress arena: it
	// is valid until the next Step / StepAppend / StepBatch call, so
	// callers that retain egress across steps must copy.
	Packet packet.Packet
}

// segRing is a compacting deque of segmented cells: push appends,
// popFront advances a start cursor, and the backing array is compacted
// in place when it fills, so steady-state operation does not allocate.
type segRing struct {
	cells []packet.SegCell
	start int
}

func (q *segRing) len() int { return len(q.cells) - q.start }

// ensure compacts so that n appends fit without growing, when the
// slack at the front allows it.
func (q *segRing) ensure(n int) {
	if q.start > 0 && len(q.cells)+n > cap(q.cells) {
		m := copy(q.cells, q.cells[q.start:])
		q.cells = q.cells[:m]
		q.start = 0
	}
}

func (q *segRing) push(c packet.SegCell) {
	q.ensure(1)
	q.cells = append(q.cells, c)
}

func (q *segRing) front() packet.SegCell { return q.cells[q.start] }

func (q *segRing) popFront() packet.SegCell {
	c := q.cells[q.start]
	q.cells[q.start] = packet.SegCell{} // drop the payload reference
	q.start++
	if q.start == len(q.cells) {
		q.cells, q.start = q.cells[:0], 0
	}
	return c
}

// lineCard is one ingress port: its VOQ buffer plus the dense
// per-VOQ metadata arenas.
type lineCard struct {
	buf *core.Buffer
	seg packet.Segmenter
	// pending serializes segmented cells onto the line (1 per slot).
	pending segRing
	// arrivals[voq] counts cells admitted, assigning the sequence
	// numbers the buffer will deliver back; delivered[voq] counts
	// deliveries consumed, verifying the buffer's FIFO guarantee.
	arrivals  []uint64
	delivered []uint64
	// meta[voq] holds the admitted cells' payloads and headers in
	// arrival order; per-VOQ FIFO delivery makes the front cell the
	// one the buffer hands back next.
	meta []segRing
	// reqVec[output] is the highest-priority requestable VOQ addressed
	// to output (cell.NoQueue = none): what the port requests when the
	// scheduler matches it to output. refreshReq keeps it, and the
	// scheduler's request bit for (port, output), current.
	reqVec []cell.QueueID
}

// Stats aggregates router-level counters.
type Stats struct {
	// OfferedPackets / DeliveredPackets count whole packets.
	OfferedPackets, DeliveredPackets uint64
	// SwitchedCells counts cells moved through the fabric.
	SwitchedCells uint64
	// Matches counts input-output matches made by the scheduler.
	Matches uint64
	// Slots counts Step calls.
	Slots uint64
}

// Router is the composed system.
type Router struct {
	cfg     Config
	inputs  []*lineCard
	reasm   []*packet.DenseReassembler // per output port
	sched   *islip
	stats   Stats
	voqs    int
	flowMul cell.QueueID // reassembly namespace multiplier
	closed  bool

	egScratch []Egress
	// egArena backs the payloads of returned Egress packets. It is
	// reset at the start of every Step / StepAppend / StepBatch call,
	// so egress stays valid for the whole batch: a mid-batch grow moves
	// new payloads to a fresh block while already-returned slices keep
	// the old one alive and untouched.
	egArena []byte
	// tickHook, when set, runs after every port tick (tests audit the
	// incrementally maintained request state against a full recompute).
	tickHook func(port int)
}

// New builds a router. Rejected configurations return errors matching
// core.ErrBadConfig.
func New(cfg Config) (*Router, error) {
	if cfg.Ports <= 0 {
		return nil, fmt.Errorf("%w: router: Ports must be positive, got %d", core.ErrBadConfig, cfg.Ports)
	}
	if cfg.Classes < 0 {
		return nil, fmt.Errorf("%w: router: Classes must not be negative, got %d", core.ErrBadConfig, cfg.Classes)
	}
	if cfg.Classes == 0 {
		cfg.Classes = 1
	}
	if cfg.SchedulerIterations <= 0 {
		cfg.SchedulerIterations = 1
	}
	if cfg.IngressCap <= 0 {
		cfg.IngressCap = 4096
	}
	voqs := cfg.Ports * cfg.Classes
	cfg.Buffer.Q = voqs

	r := &Router{
		cfg:     cfg,
		sched:   newISLIP(cfg.Ports, cfg.SchedulerIterations),
		voqs:    voqs,
		flowMul: cell.QueueID(voqs),
	}
	for i := 0; i < cfg.Ports; i++ {
		buf, err := core.New(cfg.Buffer)
		if err != nil {
			return nil, fmt.Errorf("router: input %d buffer: %w", i, err)
		}
		r.inputs = append(r.inputs, &lineCard{
			buf:       buf,
			arrivals:  make([]uint64, voqs),
			delivered: make([]uint64, voqs),
			meta:      make([]segRing, voqs),
			reqVec:    newNoQueueVec(cfg.Ports),
		})
		// Reassembly streams are namespaced per (input, voq) so
		// same-flow cells of different inputs never interleave.
		r.reasm = append(r.reasm, packet.NewDenseReassembler(cfg.Ports*voqs))
	}
	return r, nil
}

func newNoQueueVec(n int) []cell.QueueID {
	v := make([]cell.QueueID, n)
	for i := range v {
		v[i] = cell.NoQueue
	}
	return v
}

// Config returns the normalized configuration.
func (r *Router) Config() Config { return r.cfg }

// VOQ maps (output, class) to the logical queue id used inside each
// input buffer.
func (r *Router) VOQ(output, class int) cell.QueueID {
	return cell.QueueID(output*r.cfg.Classes + class)
}

// Offer enqueues a packet at an input port. The packet's Flow must be
// a valid VOQ id (use VOQ to build it). The segmented cells alias
// p.Payload until the packet leaves the router.
func (r *Router) Offer(port int, p packet.Packet) error {
	if r.closed {
		return ErrClosed
	}
	if port < 0 || port >= r.cfg.Ports {
		return fmt.Errorf("%w: %d", ErrBadPort, port)
	}
	if p.Flow < 0 || int(p.Flow) >= r.voqs {
		return fmt.Errorf("%w: %d", ErrBadFlow, p.Flow)
	}
	in := r.inputs[port]
	n := packet.CellCount(len(p.Payload))
	if in.pending.len()+n > r.cfg.IngressCap {
		return fmt.Errorf("%w: port %d", ErrIngressFull, port)
	}
	in.pending.ensure(n)
	in.pending.cells = in.seg.SegmentAppend(in.pending.cells, p)
	r.stats.OfferedPackets++
	return nil
}

// OfferBatch enqueues packets at an input port in one validated pass:
// the port is bounds-checked once, the accepted prefix is sized
// against the ingress budget up front, and its cells are segmented in
// a single run with one ring compaction. It returns the number of
// packets accepted and the error that stopped the run (ErrBadFlow, or
// ErrIngressFull when the next packet would overflow the backlog); the
// remaining packets are not offered.
func (r *Router) OfferBatch(port int, ps []packet.Packet) (int, error) {
	if r.closed {
		return 0, ErrClosed
	}
	if port < 0 || port >= r.cfg.Ports {
		return 0, fmt.Errorf("%w: %d", ErrBadPort, port)
	}
	in := r.inputs[port]
	budget := r.cfg.IngressCap - in.pending.len()
	n, cells := 0, 0
	var stop error
	for k := range ps {
		if ps[k].Flow < 0 || int(ps[k].Flow) >= r.voqs {
			stop = fmt.Errorf("%w: %d", ErrBadFlow, ps[k].Flow)
			break
		}
		c := packet.CellCount(len(ps[k].Payload))
		if cells+c > budget {
			stop = fmt.Errorf("%w: port %d", ErrIngressFull, port)
			break
		}
		n++
		cells += c
	}
	in.pending.ensure(cells)
	for k := 0; k < n; k++ {
		in.pending.cells = in.seg.SegmentAppend(in.pending.cells, ps[k])
	}
	r.stats.OfferedPackets += uint64(n)
	return n, stop
}

// IngressBacklog returns the number of cells waiting to enter port's
// buffer.
func (r *Router) IngressBacklog(port int) int { return r.inputs[port].pending.len() }

// BufferStats exposes an input buffer's statistics.
func (r *Router) BufferStats(port int) core.Stats { return r.inputs[port].buf.Stats() }

// Stats returns the router-level counters.
func (r *Router) Stats() Stats { return r.stats }

// Quiescent reports whether a Step would be a pure slot-counter
// advance on every port: no ingress cell is waiting, no port can serve
// any output (so the iSLIP exchange makes no match and moves no
// pointer), and every buffer is itself quiescent. The checks run
// cheapest-first and bail on the first busy port, so a loaded router
// pays almost nothing for the probe.
func (r *Router) Quiescent() bool {
	for _, in := range r.inputs {
		if in.pending.len() > 0 {
			return false
		}
	}
	if !r.sched.idle() {
		return false
	}
	for _, in := range r.inputs {
		if !in.buf.Quiescent() {
			return false
		}
	}
	return true
}

// fastForward advances every port by n slots; the caller has
// established Quiescent. It is bit-identical to n Steps of a quiescent
// router: every buffer fast-forwards (which is exact per
// core.Buffer.FastForward), no skipped tick would change a request
// vector, and the only router-level state a quiescent slot touches is
// the slot counter.
func (r *Router) fastForward(n uint64) {
	for _, in := range r.inputs {
		in.buf.FastForward(n)
	}
	r.stats.Slots += n
}

// refreshReq re-derives port i's request toward the output that owns
// VOQ q — the lowest requestable class — and publishes it to the
// scheduler. A tick moves Requestable only on its arrival VOQ (+1 when
// admitted) and its request VOQ (-1 when admitted); a delivery retires
// a cell and its pending request together, net zero. So refreshing
// these two after a tick keeps the whole vector equal to a recompute
// over all Ports×Classes VOQs.
func (r *Router) refreshReq(i int, in *lineCard, q cell.QueueID) {
	if q == cell.NoQueue {
		return
	}
	C := r.cfg.Classes
	o := int(q) / C
	best := cell.NoQueue
	for v, end := cell.QueueID(o*C), cell.QueueID(o*C+C); v < end; v++ {
		if in.buf.Requestable(v) > 0 {
			best = v
			break
		}
	}
	in.reqVec[o] = best
	r.sched.set(i, o, best != cell.NoQueue)
}

// tickPort advances port i one slot: admit one pending ingress cell,
// tick the buffer with the fabric request for the matched output, and
// move the delivered cell across the fabric to its output reassembler,
// appending any completed packet to out. Ports run in input order, so
// egress order is deterministic.
//
//pktbuf:hotpath
func (r *Router) tickPort(i, matchedOut int, out []Egress) ([]Egress, error) {
	in := r.inputs[i]
	tick := core.TickInput{Arrival: cell.NoQueue, Request: cell.NoQueue}
	if in.pending.len() > 0 {
		tick.Arrival = in.pending.front().Flow
	}
	// The scheduler only matches ports whose request vector names a VOQ.
	if matchedOut >= 0 {
		tick.Request = in.reqVec[matchedOut]
	}
	res, err := in.buf.Tick(tick)
	if err != nil {
		if errors.Is(err, core.ErrBufferFull) {
			err = nil // the cell stays pending and retries next slot
		} else {
			err = fmt.Errorf("router: input %d: %w", i, err) //pktbuf:allow hotpath-noalloc cold invariant-violation path; allocates only when the slot already failed
		}
	}
	// The buffer completes the slot whatever it reports, so the line
	// card commits what the buffer did, not what the tick asked for: the
	// arrival was admitted iff the buffer assigned it a sequence number.
	if a := tick.Arrival; a != cell.NoQueue && in.buf.ArrivedSeq(a) > in.arrivals[a] {
		in.arrivals[a]++
		in.meta[a].push(in.pending.popFront())
	}
	if dc := res.Delivered; dc != nil {
		// Per-VOQ FIFO delivery makes the front of meta the cell's
		// payload and header.
		q := dc.Queue
		if mq := &in.meta[q]; mq.len() > 0 && in.delivered[q] == dc.Seq {
			in.delivered[q]++
			var ferr error
			if out, ferr = r.cross(i, q, mq.popFront(), out); err == nil {
				err = ferr
			}
		} else if err == nil {
			err = fmt.Errorf("router: input %d delivered unknown cell %v", i, *dc) //pktbuf:allow hotpath-noalloc cold invariant-violation path; allocates only when the slot already failed
		}
	}
	r.refreshReq(i, in, tick.Arrival)
	r.refreshReq(i, in, tick.Request)
	if r.tickHook != nil {
		r.tickHook(i)
	}
	return out, err
}

// cross moves a cell delivered by input i's VOQ q across the fabric to
// its output reassembler, appending a completed packet to out.
//
//pktbuf:hotpath
func (r *Router) cross(i int, q cell.QueueID, sc packet.SegCell, out []Egress) ([]Egress, error) {
	r.stats.SwitchedCells++
	output := int(q) / r.cfg.Classes
	// Reassemble per (input, voq) stream so same-flow cells of
	// different inputs never interleave.
	sc.Flow = cell.QueueID(i)*r.flowMul + q
	p, ok, err := r.reasm[output].Push(sc)
	if err != nil {
		return out, fmt.Errorf("router: output %d: %w", output, err) //pktbuf:allow hotpath-noalloc cold invariant-violation path; allocates only when the slot already failed
	}
	if ok {
		p.Flow = q // the flow id as offered
		// Copy the payload out of the reassembler's per-flow buffer
		// (overwritten by the stream's next packet) into the egress
		// arena (stable until the next step call).
		off := len(r.egArena)
		r.egArena = append(r.egArena, p.Payload...) //pktbuf:allow hotpath-noalloc egress arena append: amortized, capacity reused across steps
		p.Payload = r.egArena[off:len(r.egArena):len(r.egArena)]
		out = append(out, Egress{Output: output, Input: i, Packet: p}) //pktbuf:allow hotpath-noalloc appends into the caller's reused backing array; grows only on the first steps
		r.stats.DeliveredPackets++
	}
	return out, nil
}

// Step advances the router one slot: one fabric matching, then per
// port one ingress cell, one buffer tick and output reassembly. It
// returns the packets completed this slot; the slice (and the packet
// payloads, see Egress) is scratch reused by the next Step.
func (r *Router) Step() ([]Egress, error) {
	out, err := r.StepAppend(r.egScratch[:0])
	r.egScratch = out
	return out, err
}

// StepAppend is Step appending the slot's egress to out, for callers
// that manage their own egress buffer. On a tick error the slot still
// completes on every port; the first error in input-port order is
// returned.
func (r *Router) StepAppend(out []Egress) ([]Egress, error) {
	if r.closed {
		return out, ErrClosed
	}
	r.egArena = r.egArena[:0]
	return r.stepSlot(out)
}

// StepBatch advances slots slots, appending all egress to out; egress
// payloads from the whole batch stay valid until the next step call,
// and with enough capacity in out the batch allocates nothing. On a
// slot error it stops after the offending slot (whose egress is
// already appended) and returns the error. When the router goes
// quiescent the remaining slots are skipped in one fast-forward of
// every buffer — bit-identical to stepping them apart from
// core.Stats.FastForwardedSlots — so a batch that outlives its traffic
// costs O(events), not O(slots).
func (r *Router) StepBatch(slots int, out []Egress) ([]Egress, error) {
	if r.closed {
		return out, ErrClosed
	}
	r.egArena = r.egArena[:0]
	for s := 0; s < slots; s++ {
		if r.Quiescent() {
			r.fastForward(uint64(slots - s))
			break
		}
		var err error
		if out, err = r.stepSlot(out); err != nil {
			return out, fmt.Errorf("slot %d of batch: %w", s, err)
		}
	}
	return out, nil
}

// stepSlot advances one slot without resetting the egress arena.
func (r *Router) stepSlot(out []Egress) ([]Egress, error) {
	r.stats.Matches += uint64(r.sched.schedule())
	var firstErr error
	for i, matchedOut := range r.sched.matched {
		var err error
		if out, err = r.tickPort(i, matchedOut, out); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	r.stats.Slots++
	return out, firstErr
}

// Close marks the router closed: further Offer and Step calls return
// ErrClosed. It holds no goroutine or other resource; Close is
// idempotent.
func (r *Router) Close() error {
	r.closed = true
	return nil
}
