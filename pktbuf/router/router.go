// Package router is the public router engine: the paper's system
// context (Figure 1) promoted to the API surface. An Engine is an
// input-queued router in which every input line card carries its own
// VOQ packet buffer (a pktbuf.Buffer), fed by the cell segmentation
// layer (repro/pktbuf/packet) and drained by an iSLIP-style
// request-grant-accept fabric scheduler; output ports reassemble cells
// into packets.
//
// The engine is serial: every slot — one scheduler exchange, then each
// port's ingress, buffer tick and output reassembly in input order —
// runs on the caller's goroutine, and the engine starts none of its
// own. A line card's work between two scheduler exchanges is a few
// hundred nanoseconds, far below the cost of handing it to another
// goroutine; every sharded variant this package used to offer
// measured slower than the serial one (see the README's "Why the
// engine is serial"). Multi-core throughput comes from running
// independent engines, one per goroutine.
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
	"fmt"

	"repro/internal/cell"
	"repro/internal/facade"
	ipacket "repro/internal/packet"
	irouter "repro/internal/router"
	"repro/pktbuf"
	"repro/pktbuf/packet"
)

// Errors returned by the engine, matched with errors.Is. Config
// rejections from New wrap pktbuf.ErrBadConfig instead.
var (
	// ErrIngressFull reports that an Offer would exceed the port's
	// pre-segmentation cell backlog (Config.IngressCap).
	ErrIngressFull = irouter.ErrIngressFull
	// ErrBadPort reports a port index outside [0, Config.Ports).
	ErrBadPort = irouter.ErrBadPort
	// ErrBadFlow reports a packet flow outside [0, Ports×Classes).
	ErrBadFlow = irouter.ErrBadFlow
	// ErrClosed reports use of an engine after Close.
	ErrClosed = irouter.ErrClosed
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
	// as offered). Its payload lives in the engine's egress arena: all
	// egress from one Step or StepBatch call stays valid until the
	// next such call, so callers that retain packets across steps must
	// copy the payload.
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

// Engine is the composed router.
type Engine struct {
	inner     *irouter.Router
	cfg       Config
	scratch   []irouter.Egress
	egOut     []Egress
	obScratch []ipacket.Packet
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
	buf := cfg.Buffer
	buf.Queues = cfg.Ports * cfg.Classes
	cc, err := facade.CoreConfig(buf)
	if err != nil {
		return nil, err
	}
	inner, err := irouter.New(irouter.Config{
		Ports:               cfg.Ports,
		Classes:             cfg.Classes,
		Buffer:              cc,
		SchedulerIterations: cfg.SchedulerIterations,
		IngressCap:          cfg.IngressCap,
	})
	if err != nil {
		return nil, err
	}
	norm := inner.Config()
	cfg.SchedulerIterations = norm.SchedulerIterations
	cfg.IngressCap = norm.IngressCap
	return &Engine{inner: inner, cfg: cfg}, nil
}

// Config returns the normalized configuration (defaults resolved; the
// Buffer field is the template as passed, with Queues overwritten).
func (e *Engine) Config() Config {
	cfg := e.cfg
	cfg.Buffer.Queues = cfg.Ports * cfg.Classes
	return cfg
}

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
// a valid VOQ id (use VOQ to build it); its payload is aliased by the
// segmented cells until the packet leaves the router. Offer must not
// be called concurrently with Step or StepBatch.
func (e *Engine) Offer(port int, p packet.Packet) error {
	return e.inner.Offer(port, ipacket.Packet{Flow: cell.QueueID(p.Flow), Payload: p.Payload})
}

// OfferBatch enqueues packets at an input port in one validated pass:
// the port is checked once, the accepted prefix is
// sized against the ingress budget up front, and its cells are
// segmented in a single run. It returns the number of packets
// accepted and the error that stopped the run (ErrIngressFull when
// the backlog fills, ErrBadFlow on an invalid flow id); the remaining
// packets are not offered.
func (e *Engine) OfferBatch(port int, ps []packet.Packet) (int, error) {
	e.obScratch = e.obScratch[:0]
	for k := range ps {
		e.obScratch = append(e.obScratch, ipacket.Packet{Flow: cell.QueueID(ps[k].Flow), Payload: ps[k].Payload})
	}
	n, err := e.inner.OfferBatch(port, e.obScratch)
	for k := range e.obScratch {
		e.obScratch[k] = ipacket.Packet{} // drop payload references
	}
	return n, err
}

// Step advances the engine one slot: one iSLIP matching, then per
// port one ingress cell, one buffer tick and output reassembly, in
// input order. It returns the packets completed this
// slot; the slice and the packet payloads are valid until the next
// Step or StepBatch call (see Egress).
func (e *Engine) Step() ([]Egress, error) {
	out, err := e.StepBatch(1, e.egOut[:0])
	e.egOut = out
	return out, err
}

// StepBatch advances up to slots slots, appending every completed
// packet to out and returning the extended slice: with enough
// capacity in out it allocates nothing. Egress payloads from the whole batch stay valid
// until the next Step or StepBatch call. On a slot error it stops
// after the offending slot (whose egress is already appended) and
// returns the error.
func (e *Engine) StepBatch(slots int, out []Egress) ([]Egress, error) {
	var stepErr error
	e.scratch, stepErr = e.inner.StepBatch(slots, e.scratch[:0])
	for _, g := range e.scratch {
		out = append(out, Egress{
			Output: g.Output,
			Input:  g.Input,
			Packet: packet.Packet{Flow: pktbuf.Queue(g.Packet.Flow), Payload: g.Packet.Payload},
		})
	}
	return out, stepErr
}

// IngressBacklog returns the number of segmented cells waiting to
// enter port's buffer.
func (e *Engine) IngressBacklog(port int) int { return e.inner.IngressBacklog(port) }

// BufferStats exposes an input port's buffer statistics — the same
// snapshot pktbuf.Buffer.Stats reports, including the worst-case
// invariant counters (Clean()).
func (e *Engine) BufferStats(port int) pktbuf.Stats {
	return facade.PublicStats(e.inner.BufferStats(port)).(pktbuf.Stats)
}

// Stats returns the router-level counters.
func (e *Engine) Stats() Stats {
	s := e.inner.Stats()
	return Stats{
		OfferedPackets:   s.OfferedPackets,
		DeliveredPackets: s.DeliveredPackets,
		SwitchedCells:    s.SwitchedCells,
		Matches:          s.Matches,
		Slots:            s.Slots,
	}
}

// Quiescent reports whether every port is idle end to end: no ingress
// cell waiting, no requestable VOQ anywhere, and every buffer with no
// internal work in flight. A quiescent engine's StepBatch
// fast-forwards every buffer instead of stepping slot by slot
// (bit-identical, but O(1) per batch), so batches that outlive their
// traffic cost nothing per slot.
func (e *Engine) Quiescent() bool { return e.inner.Quiescent() }

// Close marks the engine closed: it rejects further Offer and Step
// calls with ErrClosed. Close is idempotent.
func (e *Engine) Close() error { return e.inner.Close() }
