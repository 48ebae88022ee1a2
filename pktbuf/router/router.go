// Package router is the public router engine: the paper's system
// context (Figure 1) promoted to the API surface. An Engine is an
// input-queued router in which every input line card carries its own
// VOQ packet buffer (the buffer pktbuf.New builds from Config.Buffer),
// fed one 64-byte cell per slot (packet.CellCount cells per packet) and
// drained by an iSLIP-style request-grant-accept fabric scheduler
// (repro/internal/router); a packet leaves its output port once its
// last cell has crossed the fabric.
//
// The router is the "example application" the paper motivates — it is
// also the harshest client of the buffer's guarantees: the fabric
// scheduler's per-slot requests form exactly the adversarial patterns
// (§3) the buffer must absorb, and any miss, conflict or reorder
// surfaces as a corrupted packet at an output port.
//
// The engine is serial: every slot — one scheduler exchange
// (ISLIP.Schedule), then tickPort for each port in input order: its
// ingress, its buffer tick and the delivered cell's fabric crossing —
// runs on the caller's goroutine, and the engine starts none of its
// own. A line card's work between two scheduler exchanges is a few
// hundred nanoseconds, far below the cost of handing it to another
// goroutine; every sharded variant this package used to offer
// measured slower than the serial one (see the README's "Why the
// engine is serial"). Multi-core throughput comes from running
// independent engines, one per goroutine.
//
// Line cards carry packets, not cells: each port keeps one record per
// packet (its payload, flow, cell count and two cell cursors) in a
// per-port slab, from Offer until the packet's last cell crosses the
// fabric. The ingress FIFO and every VOQ FIFO are lists linked by slab
// index through those records, and the buffer's per-VOQ FIFO delivery
// order lets a delivered cell advance the front record of its VOQ, so
// the steady-state Step path performs no hashing and no allocation.
// The engine never copies a payload: a packet leaves with the very
// slice it was offered with.
//
// A minimal session:
//
//	eng, err := router.New(router.Config{Ports: 8, Buffer: pktbuf.Config{
//	    LineRate: pktbuf.OC3072, Granularity: 4, Banks: 256}})
//	defer eng.Close()
//	eng.Offer(0, packet.Packet{Flow: eng.VOQ(3, 0), Payload: body})
//	egress, err := eng.StepBatch(1000, nil)   // or Step() slot by slot
//
// The engine is single-driver: Offer, Step, StepBatch and Close must
// be called from one goroutine. Errors are typed sentinels
// (ErrIngressFull, ErrBadPort, ErrBadFlow, ErrClosed) matched with
// errors.Is; config rejections wrap pktbuf.ErrBadConfig.
package router

import (
	"errors"
	"fmt"

	"repro/internal/cell"
	"repro/internal/core"
	"repro/internal/facade"
	fabric "repro/internal/router"
	"repro/pktbuf"
	"repro/pktbuf/packet"
)

// Errors returned by the engine, matched with errors.Is. Config
// rejections from New wrap pktbuf.ErrBadConfig instead.
var (
	// ErrIngressFull reports that an Offer would exceed the port's
	// pre-segmentation cell backlog (Config.IngressCap).
	ErrIngressFull = errors.New("router: ingress backlog full")
	// ErrBadPort reports a port index outside [0, Config.Ports).
	ErrBadPort = errors.New("router: port out of range")
	// ErrBadFlow reports a packet flow outside [0, Ports×Classes).
	ErrBadFlow = errors.New("router: packet flow out of range")
	// ErrClosed reports use of an engine after Close.
	ErrClosed = errors.New("router: engine closed")
)

// Config describes the router engine.
type Config struct {
	// Ports is the number of input (= output) ports.
	Ports int
	// Classes is the number of service classes (default 1); each input
	// buffer holds Ports×Classes VOQs (§2: "Each logical queue
	// corresponds to an output line interface and a class of
	// service").
	Classes int
	// Buffer is the per-input packet buffer template. Its Queues field
	// is overwritten with Ports×Classes.
	Buffer pktbuf.Config
	// SchedulerIterations is the number of iSLIP iterations per slot
	// (default 1; more iterations converge closer to a maximal
	// matching).
	SchedulerIterations int
	// IngressCap bounds each input's pre-segmentation cell backlog
	// (0 = a generous default of 4096 cells).
	IngressCap int
	// Workers is ignored: the engine is serial whatever it says.
	//
	// Deprecated: it used to select a goroutine-per-port sharding that
	// measured slower than the serial engine at every setting.
	Workers int
}

// Egress is one packet leaving the router.
type Egress struct {
	// Output is the egress port.
	Output int
	// Input is the port the packet entered on.
	Input int
	// Packet is the reassembled packet (Flow = output×Classes+class,
	// as offered). Its Payload is the slice the caller offered, not a
	// copy: the engine never copies a payload, so it stays valid for as
	// long as the caller keeps that buffer unchanged.
	Packet packet.Packet
}

// Stats aggregates router-level counters.
type Stats struct {
	// OfferedPackets / DeliveredPackets count whole packets.
	OfferedPackets, DeliveredPackets uint64
	// SwitchedCells counts cells moved through the fabric.
	SwitchedCells uint64
	// Matches counts input-output matches made by the scheduler.
	Matches uint64
	// Slots counts slots stepped.
	Slots uint64
}

// nilPkt is the end-of-list (and empty-list) slab index.
const nilPkt int32 = -1

// pkt is one packet on a line card, from Offer until its last cell
// crosses the fabric: payload is the offered slice itself. admitted
// counts the cells the buffer has taken in and crossed those that have
// left through the fabric. A packet sits on its port's ingress list
// (linked by nextIn) until every cell is admitted, and on its VOQ's
// list (linked by nextVOQ) from its first cell's admission until its
// last cell crosses; a free record is linked by nextIn into the free
// list.
type pkt struct {
	payload           []byte
	flow              cell.QueueID
	cells             int32
	admitted, crossed int32
	nextIn, nextVOQ   int32
}

// pktList is a FIFO of slab records linked by index.
type pktList struct{ head, tail int32 }

var emptyList = pktList{nilPkt, nilPkt}

// lineCard is one ingress port: its VOQ buffer plus its packet slab and
// the lists threaded through it.
type lineCard struct {
	buf *core.Buffer
	// pkts is the port's packet slab; free heads the list of unused
	// records. The slab grows by append only when every record is live,
	// so steady-state operation does not allocate.
	pkts []pkt
	free int32
	// ingress serializes offered packets onto the line, one cell per
	// slot; pendingCells counts their cells the buffer has not admitted.
	ingress      pktList
	pendingCells int
	// arrivals[voq] counts cells admitted, assigning the sequence
	// numbers the buffer will deliver back; delivered[voq] counts
	// deliveries consumed, verifying the buffer's FIFO guarantee.
	arrivals  []uint64
	delivered []uint64
	// voq[q] lists the VOQ's packets in admission order; per-VOQ FIFO
	// delivery makes its head the packet of the next cell the buffer
	// hands back. Each (input, class) stream reaching an output is
	// exactly one VOQ, so the head's crossed cursor is the reassembly
	// state.
	voq []pktList
	// reqVec[output] is the highest-priority requestable VOQ addressed
	// to output (cell.NoQueue = none): what the port requests when the
	// scheduler matches it to output. refreshReq keeps it, and the
	// scheduler's request bit for (port, output), current.
	reqVec []cell.QueueID
}

// alloc takes a record off the free list, or appends one to the slab.
func (in *lineCard) alloc() int32 {
	if i := in.free; i != nilPkt {
		in.free = in.pkts[i].nextIn
		return i
	}
	in.pkts = append(in.pkts, pkt{})
	return int32(len(in.pkts) - 1)
}

// release returns record i to the free list, dropping its payload
// reference.
func (in *lineCard) release(i int32) {
	in.pkts[i] = pkt{nextIn: in.free}
	in.free = i
}

// Engine is the composed router.
type Engine struct {
	cfg    Config
	inputs []*lineCard
	sched  *fabric.ISLIP
	stats  Stats
	voqs   int
	closed bool

	egScratch []Egress
	// tickHook, when set, runs after every port tick (tests audit the
	// incrementally maintained request state against a full recompute).
	tickHook func(port int)
}

// New builds an engine. Rejected configurations (including buffer
// template rejections) return errors matching pktbuf.ErrBadConfig.
func New(cfg Config) (*Engine, error) {
	if cfg.Ports <= 0 {
		return nil, fmt.Errorf("%w: router: Ports must be positive, got %d", pktbuf.ErrBadConfig, cfg.Ports)
	}
	if cfg.Classes < 0 {
		return nil, fmt.Errorf("%w: router: Classes must not be negative, got %d", pktbuf.ErrBadConfig, cfg.Classes)
	}
	if cfg.Classes == 0 {
		cfg.Classes = 1
	}
	cfg.Buffer.Queues = cfg.Ports * cfg.Classes
	buf, err := facade.CoreConfig(cfg.Buffer)
	if err != nil {
		return nil, err
	}
	return newEngine(cfg, buf)
}

// newEngine builds the engine for cfg, whose Ports and Classes are
// already validated and defaulted, with every line card's buffer
// built from buf (its Q overwritten with Ports×Classes).
func newEngine(cfg Config, buf core.Config) (*Engine, error) {
	if cfg.SchedulerIterations <= 0 {
		cfg.SchedulerIterations = 1
	}
	if cfg.IngressCap <= 0 {
		cfg.IngressCap = 4096
	}
	voqs := cfg.Ports * cfg.Classes
	buf.Q = voqs

	e := &Engine{
		cfg:   cfg,
		sched: fabric.NewISLIP(cfg.Ports, cfg.SchedulerIterations),
		voqs:  voqs,
	}
	for i := 0; i < cfg.Ports; i++ {
		b, err := core.New(buf)
		if err != nil {
			return nil, fmt.Errorf("router: input %d buffer: %w", i, err)
		}
		in := &lineCard{
			buf:       b,
			free:      nilPkt,
			ingress:   emptyList,
			arrivals:  make([]uint64, voqs),
			delivered: make([]uint64, voqs),
			voq:       make([]pktList, voqs),
			reqVec:    newNoQueueVec(cfg.Ports),
		}
		for q := range in.voq {
			in.voq[q] = emptyList
		}
		e.inputs = append(e.inputs, in)
	}
	return e, nil
}

func newNoQueueVec(n int) []cell.QueueID {
	v := make([]cell.QueueID, n)
	for i := range v {
		v[i] = cell.NoQueue
	}
	return v
}

// Config returns the normalized configuration (defaults resolved; the
// Buffer field is the template as passed, with Queues overwritten).
func (e *Engine) Config() Config { return e.cfg }

// VOQ maps (output, class) to the flow id used when offering packets.
// Out-of-range arguments return pktbuf.None, which Offer rejects with
// ErrBadFlow — an in-range class can never silently alias another
// output's VOQ.
func (e *Engine) VOQ(output, class int) pktbuf.Queue {
	if output < 0 || output >= e.cfg.Ports || class < 0 || class >= e.cfg.Classes {
		return pktbuf.None
	}
	return pktbuf.Queue(output*e.cfg.Classes + class)
}

// Offer enqueues a packet at an input port. The packet's Flow must be
// a valid VOQ id (use VOQ to build it). The engine never copies the
// payload: it carries the caller's own slice through the router and
// hands that same slice back in the packet's Egress, so the caller must
// keep the buffer unchanged for as long as it uses either. Offer must
// not be called concurrently with Step or StepBatch.
func (e *Engine) Offer(port int, p packet.Packet) error {
	if e.closed {
		return ErrClosed
	}
	if port < 0 || port >= e.cfg.Ports {
		return fmt.Errorf("%w: %d", ErrBadPort, port)
	}
	return e.offer(port, p)
}

// offer validates p's flow and the port's cell budget, then queues p as
// one slab record at the tail of the port's ingress list.
func (e *Engine) offer(port int, p packet.Packet) error {
	if p.Flow < 0 || int(p.Flow) >= e.voqs {
		return fmt.Errorf("%w: %d", ErrBadFlow, p.Flow)
	}
	in := e.inputs[port]
	n := packet.CellCount(len(p.Payload))
	if in.pendingCells+n > e.cfg.IngressCap {
		return fmt.Errorf("%w: port %d", ErrIngressFull, port)
	}
	i := in.alloc()
	in.pkts[i] = pkt{payload: p.Payload, flow: cell.QueueID(p.Flow), cells: int32(n), nextIn: nilPkt, nextVOQ: nilPkt}
	if in.ingress.tail == nilPkt {
		in.ingress.head = i
	} else {
		in.pkts[in.ingress.tail].nextIn = i
	}
	in.ingress.tail = i
	in.pendingCells += n
	e.stats.OfferedPackets++
	return nil
}

// OfferBatch enqueues packets at an input port in order, checking the
// port once and each packet as Offer does. It returns the number of packets accepted
// and the error that stopped the run (ErrIngressFull when the backlog
// fills, ErrBadFlow on an invalid flow id); the remaining packets are
// not offered.
func (e *Engine) OfferBatch(port int, ps []packet.Packet) (int, error) {
	if e.closed {
		return 0, ErrClosed
	}
	if port < 0 || port >= e.cfg.Ports {
		return 0, fmt.Errorf("%w: %d", ErrBadPort, port)
	}
	for k, p := range ps {
		if err := e.offer(port, p); err != nil {
			return k, err
		}
	}
	return len(ps), nil
}

// Step advances the engine one slot: one iSLIP matching, then per
// port one ingress cell, one buffer tick and the delivered cell's
// fabric crossing, in input order. It returns the packets completed
// this slot; the slice is reused by the next Step call, while each
// packet's payload is the caller's own offered buffer (see Egress).
func (e *Engine) Step() ([]Egress, error) {
	out, err := e.StepBatch(1, e.egScratch[:0])
	e.egScratch = out
	return out, err
}

// StepBatch advances up to slots slots, appending every completed
// packet to out and returning the extended slice: with enough capacity
// in out it allocates nothing. Egress payloads are the offered slices
// themselves — the engine never copies a payload — so they stay valid
// for as long as the caller keeps those buffers unchanged. On a slot error it
// stops after the offending slot (whose egress is already appended)
// and returns the error. When the engine goes quiescent the remaining
// slots are skipped in one fast-forward of every buffer — bit-identical
// to stepping them apart from the buffers' FastForwardedSlots — so a
// batch that outlives its traffic costs O(events), not O(slots).
func (e *Engine) StepBatch(slots int, out []Egress) ([]Egress, error) {
	if e.closed {
		return out, ErrClosed
	}
	for s := 0; s < slots; s++ {
		if e.Quiescent() {
			e.fastForward(uint64(slots - s))
			break
		}
		var err error
		if out, err = e.stepSlot(out); err != nil {
			return out, fmt.Errorf("slot %d of batch: %w", s, err)
		}
	}
	return out, nil
}

// stepSlot advances one slot. On a tick error the slot still completes
// on every port; the first error in input-port order is returned.
func (e *Engine) stepSlot(out []Egress) ([]Egress, error) {
	e.stats.Matches += uint64(e.sched.Schedule())
	var firstErr error
	for i, matchedOut := range e.sched.Matched {
		var err error
		if out, err = e.tickPort(i, matchedOut, out); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	e.stats.Slots++
	return out, firstErr
}

// fastForward advances every port by n slots; the caller has
// established Quiescent. It is bit-identical to n slots of a quiescent
// engine: every buffer fast-forwards (which is exact per
// core.Buffer.FastForward), no skipped tick would change a request
// vector, and the only engine-level state a quiescent slot touches is
// the slot counter.
func (e *Engine) fastForward(n uint64) {
	for _, in := range e.inputs {
		in.buf.FastForward(n)
	}
	e.stats.Slots += n
}

// refreshReq re-derives port i's request toward the output that owns
// VOQ q — the lowest requestable class — and publishes it to the
// scheduler. A tick moves Requestable only on its arrival VOQ (+1 when
// admitted) and its request VOQ (-1 when admitted); a delivery retires
// a cell and its pending request together, net zero. So refreshing
// these two after a tick keeps the whole vector equal to a recompute
// over all Ports×Classes VOQs.
func (e *Engine) refreshReq(i int, in *lineCard, q cell.QueueID) {
	if q == cell.NoQueue {
		return
	}
	C := e.cfg.Classes
	o := int(q) / C
	best := cell.NoQueue
	for v, end := cell.QueueID(o*C), cell.QueueID(o*C+C); v < end; v++ {
		if in.buf.Requestable(v) > 0 {
			best = v
			break
		}
	}
	in.reqVec[o] = best
	e.sched.Set(i, o, best != cell.NoQueue)
}

// tickPort advances port i one slot: offer the next cell of the front
// ingress packet, tick the buffer with the fabric request for the
// matched output, and move the delivered cell across the fabric,
// appending any completed packet to out. Ports run in input order, so
// egress order is deterministic.
//
//pktbuf:hotpath
func (e *Engine) tickPort(i, matchedOut int, out []Egress) ([]Egress, error) {
	in := e.inputs[i]
	tick := core.TickInput{Arrival: cell.NoQueue, Request: cell.NoQueue}
	front := in.ingress.head
	if front != nilPkt {
		tick.Arrival = in.pkts[front].flow
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
		in.pendingCells--
		r := &in.pkts[front]
		if r.admitted == 0 {
			// The first admitted cell puts the packet on its VOQ's list.
			if l := &in.voq[a]; l.tail == nilPkt {
				l.head, l.tail = front, front
			} else {
				in.pkts[l.tail].nextVOQ = front
				l.tail = front
			}
		}
		if r.admitted++; r.admitted == r.cells {
			if in.ingress.head = r.nextIn; in.ingress.head == nilPkt {
				in.ingress.tail = nilPkt
			}
		}
	}
	if dc := res.Delivered; dc != nil {
		// A delivery is known iff it is the VOQ's next admitted cell.
		q := dc.Queue
		if in.delivered[q] < in.arrivals[q] && in.delivered[q] == dc.Seq {
			in.delivered[q]++
			out = e.cross(i, in, q, out)
		} else if err == nil {
			err = fmt.Errorf("router: input %d delivered unknown cell %v", i, *dc) //pktbuf:allow hotpath-noalloc cold invariant-violation path; allocates only when the slot already failed
		}
	}
	e.refreshReq(i, in, tick.Arrival)
	e.refreshReq(i, in, tick.Request)
	if e.tickHook != nil {
		e.tickHook(i)
	}
	return out, err
}

// cross moves the cell delivered by input i's VOQ q across the fabric:
// it advances the crossed cursor of the VOQ's head packet and, when the
// packet's last cell has crossed, appends it to out — with the offered
// payload slice, uncopied — and frees its slab record.
//
//pktbuf:hotpath
func (e *Engine) cross(i int, in *lineCard, q cell.QueueID, out []Egress) []Egress {
	e.stats.SwitchedCells++
	l := &in.voq[q]
	head := l.head
	r := &in.pkts[head]
	if r.crossed++; r.crossed < r.cells {
		return out
	}
	p := packet.Packet{Flow: pktbuf.Queue(q), Payload: r.payload}
	out = append(out, Egress{Output: int(q) / e.cfg.Classes, Input: i, Packet: p}) //pktbuf:allow hotpath-noalloc appends into the caller's reused backing array; grows only on the first steps
	e.stats.DeliveredPackets++
	// Every cell has crossed, so every cell was admitted: the packet
	// has already left the ingress list, and this VOQ's list is the
	// last one holding it.
	if l.head = r.nextVOQ; l.head == nilPkt {
		l.tail = nilPkt
	}
	in.release(head)
	return out
}

// IngressBacklog returns the number of cells of offered packets still
// waiting to enter port's buffer.
func (e *Engine) IngressBacklog(port int) int { return e.inputs[port].pendingCells }

// BufferStats exposes an input port's buffer statistics — the same
// snapshot pktbuf.Buffer.Stats reports, including the worst-case
// invariant counters (Clean()).
func (e *Engine) BufferStats(port int) pktbuf.Stats {
	return facade.PublicStats(e.inputs[port].buf.Stats()).(pktbuf.Stats)
}

// Stats returns the router-level counters.
func (e *Engine) Stats() Stats { return e.stats }

// Quiescent reports whether every port is idle end to end: no ingress
// cell waiting, no port able to serve any output (so the iSLIP
// exchange makes no match and moves no pointer), and every buffer with
// no internal work in flight. A quiescent engine's StepBatch
// fast-forwards every buffer instead of stepping slot by slot
// (bit-identical, but O(1) per batch), so batches that outlive their
// traffic cost nothing per slot. The checks run cheapest-first and
// bail on the first busy port, so a loaded engine pays almost nothing
// for the probe.
func (e *Engine) Quiescent() bool {
	for _, in := range e.inputs {
		if in.pendingCells > 0 {
			return false
		}
	}
	if !e.sched.Idle() {
		return false
	}
	for _, in := range e.inputs {
		if !in.buf.Quiescent() {
			return false
		}
	}
	return true
}

// Close marks the engine closed: it rejects further Offer and Step
// calls with ErrClosed. It holds no goroutine or other resource; Close
// is idempotent.
func (e *Engine) Close() error {
	e.closed = true
	return nil
}
