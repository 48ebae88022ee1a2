// Package pktbuf is the public API of the packet-buffer library: a
// hybrid SRAM/DRAM virtual-output-queue buffer with worst-case
// bandwidth guarantees, implementing the Conflict-Free DRAM System
// (CFDS) of García, Corbal, Cerdà and Valero, "Design and
// Implementation of High-Performance Memory Systems for Future Packet
// Buffers" (MICRO-36, 2003), together with the RADS baseline of Iyer,
// Kompella and McKeown that the paper builds on.
//
// The buffer is a slot-accurate model: one Tick per cell time. Each
// slot accepts at most one arriving cell and one scheduler request and
// emits at most one delivered cell, exactly like the line card the
// paper describes. All of the paper's worst-case properties — zero
// head-SRAM misses, conflict-free DRAM banking, bounded reordering —
// are enforced as runtime invariants: if a configuration violates
// them, Tick returns an error instead of silently corrupting traffic.
//
// A minimal session:
//
//	buf, err := pktbuf.New(pktbuf.Config{Queues: 64, LineRate: pktbuf.OC3072, Granularity: 4, Banks: 256})
//	...
//	buf.Tick(pktbuf.Input{Arrival: 3, Request: pktbuf.None}) // cell arrives for VOQ 3
//	out, err := buf.Tick(pktbuf.Input{Arrival: pktbuf.None, Request: 3})
//	if out.Ok { /* forward out.Delivered */ }
//
// The façade is also the fast path: Tick has value semantics (no
// per-delivery allocation), TickBatch amortizes the call overhead for
// long runs, and errors are typed sentinels (ErrBufferFull,
// ErrUnknownQueue, ErrBadRequest, ErrBadConfig) matched with
// errors.Is. Long simulations are driven by the repro/pktbuf/sim
// runner and workload generators; repro/pktbuf/trace records and
// replays slot-level stimulus.
//
// For long-lived use outside a single process, repro/pktbuf/serve
// wraps one buffer instance in a network daemon (cmd/pktbufd):
// clients handshake for a set of flows, submit cells and receive
// deliveries over a length-prefixed wire protocol, with typed
// admission backpressure mapped onto the same error taxonomy and the
// engine still ticked by exactly one goroutine.
//
// The complete engine state is serializable: Buffer.Snapshot writes
// every queue arena, SRAM list, DRAM bank, MMA lookahead structure,
// rename register and counter as versioned frames, and Restore
// rebuilds a buffer whose subsequent run is bit-identical to one that
// was never interrupted — stats included. Snapshots back warm-start
// forking for sizing sweeps and the crash-safe checkpoint/resume path
// of the serving tier; a version or integrity mismatch fails with
// ErrSnapshotVersion or ErrSnapshot rather than yielding a
// half-restored buffer.
package pktbuf

import (
	"fmt"

	"repro/internal/cell"
	"repro/internal/core"
	"repro/internal/dimension"
	"repro/internal/facade"
)

func init() {
	// Install the bridges that let repro/pktbuf/router, the §5
	// validation and the tests reach the core layer without widening
	// the public API surface.
	facade.CoreOf = func(b any) *core.Buffer { return b.(*Buffer).inner }
	facade.CoreConfig = func(cfg any) (core.Config, error) { return coreConfig(cfg.(Config)) }
	facade.PublicStats = func(s core.Stats) any { return statsFromCore(s) }
}

// CellSize is the fixed cell size in bytes (§2 of the paper: packets
// are segmented into 64-byte cells).
const CellSize = cell.Size

// Queue identifies a Virtual Output Queue (0-based).
type Queue int32

// None means "no arrival" / "no request" in an Input.
const None Queue = -1

// LineRate selects the SONET line rate the buffer is dimensioned for.
type LineRate int

// Line rates from the paper's evaluation.
const (
	// OC192 is 10 Gb/s (51.2 ns per 64-byte cell).
	OC192 LineRate = iota
	// OC768 is 40 Gb/s (12.8 ns per cell).
	OC768
	// OC3072 is 160 Gb/s (3.2 ns per cell) — the paper's target.
	OC3072
)

// String implements fmt.Stringer.
func (r LineRate) String() string {
	c, err := r.internal()
	if err != nil {
		return fmt.Sprintf("LineRate(%d)", int(r))
	}
	return c.String()
}

// SlotTimeNS returns the duration of one time slot in nanoseconds —
// the transmission time of one 64-byte cell at the line rate (3.2 ns
// at OC-3072). Zero for an unknown rate.
func (r LineRate) SlotTimeNS() float64 {
	c, err := r.internal()
	if err != nil {
		return 0
	}
	return c.SlotTimeNS()
}

func (r LineRate) internal() (cell.LineRate, error) {
	switch r {
	case OC192:
		return cell.OC192, nil
	case OC768:
		return cell.OC768, nil
	case OC3072:
		return cell.OC3072, nil
	}
	return 0, fmt.Errorf("%w: unknown LineRate(%d)", ErrBadConfig, int(r))
}

// Organization selects the shared SRAM organization (§7.1 of the
// paper).
type Organization int

// Organizations.
const (
	// GlobalCAM is the content-addressable organization: fastest
	// access, largest area.
	GlobalCAM Organization = iota
	// UnifiedLinkedList is the time-multiplexed linked-list
	// organization: smallest area, ~3× slower per operation.
	UnifiedLinkedList
)

// MMA selects the head Memory Management Algorithm.
type MMA int

// Head MMAs.
const (
	// ECQF is Earliest Critical Queue First — the paper's h-MMA (§3),
	// driven by the request lookahead.
	ECQF MMA = iota
	// MDQF is the lookahead-free Most Deficit Queue First baseline of
	// the RADS work.
	MDQF
)

// Config describes a buffer. Queues, LineRate and Banks are required;
// everything else defaults to the paper's dimensioning formulas.
type Config struct {
	// Queues is the number of VOQs (Q).
	Queues int
	// LineRate fixes the slot time and the RADS granularity B
	// (assuming the paper's 48 ns DRAM random access time).
	LineRate LineRate
	// Granularity is the CFDS transfer granularity b in cells. Zero
	// selects B (the RADS baseline). Smaller b shrinks the SRAMs at
	// the cost of a DRAM reordering pipeline (the paper's key
	// trade-off; b=2..4 is typically optimal).
	Granularity int
	// Banks is the number of DRAM banks M (default 256, the paper's
	// evaluation value).
	Banks int
	// BankCapacityBlocks bounds per-bank storage (0 = unbounded).
	BankCapacityBlocks int
	// Renaming enables the paper's §6 queue renaming, letting any
	// single VOQ occupy the whole DRAM instead of 1/G of it.
	Renaming bool
	// Organization selects the shared SRAM structure.
	Organization Organization
	// MMA selects the head Memory Management Algorithm.
	MMA MMA
	// Lookahead overrides the MMA lookahead (slots); zero uses the
	// ECQF full lookahead Q(b−1)+1.
	Lookahead int
	// LatencySlots overrides the equation (3) latency register
	// (slots); zero uses the budget-aware analytic default. Together
	// with a small Lookahead this shortens the request→delivery
	// pipeline — low-latency and sparse deployments need that for
	// idle gaps to outlast the pipeline and fast-forward — at the
	// cost of the analytic worst-case reordering slack (a too-small
	// register surfaces as a head-SRAM miss error, never as silent
	// corruption).
	LatencySlots int
}

// Cell is one delivered 64-byte unit.
type Cell struct {
	// Queue is the VOQ the cell belongs to.
	Queue Queue
	// Seq is the cell's arrival ordinal within its VOQ; deliveries are
	// guaranteed strictly sequential per VOQ.
	Seq uint64
}

// Input is one slot's stimulus.
type Input struct {
	// Arrival is the VOQ of the cell arriving this slot (None = idle).
	Arrival Queue
	// Request is the VOQ the fabric scheduler requests this slot
	// (None = idle). The queue must have Requestable() > 0.
	Request Queue
}

// Output is one slot's outcome. It has value semantics: nothing in it
// aliases buffer-owned storage, so outputs may be retained freely and
// the delivery path performs no allocation.
type Output struct {
	// Delivered is the cell granted to the scheduler this slot. It is
	// meaningful only when Ok is true (otherwise it is the zero Cell).
	Delivered Cell
	// Ok reports whether a cell was delivered this slot.
	Ok bool
	// Bypassed reports a delivery straight from the ingress SRAM
	// (cut-through for queues with no DRAM-resident cells).
	Bypassed bool
}

// Stats is the public statistics snapshot. See core.Stats for field
// semantics; all invariant counters must remain zero on a correctly
// dimensioned buffer.
type Stats struct {
	Arrivals, Requests, Deliveries, Bypasses uint64
	Misses, Drops, BadRequests               uint64
	TailSRAMHighWater, HeadSRAMHighWater     int
	MaxRequestRegisterOccupancy              int
	MaxRequestSkips                          int
	// HeadOverflows counts the cells of refused head-SRAM landings, b
	// per refused block: the head SRAM is sized so that none is ever
	// refused, so Clean requires zero.
	HeadOverflows uint64
	// FastForwardedSlots counts slots skipped in O(1) by FastForward
	// (directly, via the TickBatch idle path, or by the sim Runner's
	// sparse fast-forward) instead of being ticked. It is the only
	// counter dense slot-by-slot ticking leaves zero; equivalence
	// comparisons exclude it by definition.
	FastForwardedSlots uint64
}

// Clean reports whether every worst-case guarantee held so far.
func (s Stats) Clean() bool {
	return s.Misses == 0 && s.Drops == 0 && s.BadRequests == 0 && s.HeadOverflows == 0
}

// Sub returns the activity between two snapshots: every monotonic
// counter becomes s−prev, while the high-water and worst-case fields
// (TailSRAMHighWater, HeadSRAMHighWater, MaxRequestRegisterOccupancy,
// MaxRequestSkips) keep their current values — a peak is a property
// of the whole run, not of an interval, so subtracting two peaks is
// meaningless. Periodic reporters take a snapshot per interval and
// print cur.Sub(prev) instead of hand-diffing fields.
func (s Stats) Sub(prev Stats) Stats {
	d := s
	d.Arrivals -= prev.Arrivals
	d.Requests -= prev.Requests
	d.Deliveries -= prev.Deliveries
	d.Bypasses -= prev.Bypasses
	d.Misses -= prev.Misses
	d.Drops -= prev.Drops
	d.BadRequests -= prev.BadRequests
	d.HeadOverflows -= prev.HeadOverflows
	d.FastForwardedSlots -= prev.FastForwardedSlots
	return d
}

// Buffer is a VOQ packet buffer instance.
type Buffer struct {
	inner *core.Buffer
	cfg   Config
}

// coreConfig applies the façade's defaulting and validation to cfg
// and returns the core configuration it dimensions. It backs both New
// and the facade.CoreConfig bridge used by pktbuf/router.
func coreConfig(cfg Config) (core.Config, error) {
	if cfg.Queues <= 0 {
		return core.Config{}, fmt.Errorf("%w: Queues must be positive, got %d", ErrBadConfig, cfg.Queues)
	}
	rate, err := cfg.LineRate.internal()
	if err != nil {
		return core.Config{}, err
	}
	switch cfg.Organization {
	case GlobalCAM, UnifiedLinkedList:
	default:
		return core.Config{}, fmt.Errorf("%w: unknown Organization(%d)", ErrBadConfig, int(cfg.Organization))
	}
	switch cfg.MMA {
	case ECQF, MDQF:
	default:
		return core.Config{}, fmt.Errorf("%w: unknown MMA(%d)", ErrBadConfig, int(cfg.MMA))
	}
	banks := cfg.Banks
	if banks == 0 {
		banks = 256
	}
	b := cfg.Granularity
	bigB := rate.Granularity(cell.DefaultDRAMAccessNS)
	if b == 0 {
		b = bigB
	}
	return core.Config{
		Q:                  cfg.Queues,
		B:                  bigB,
		Bsmall:             b,
		Banks:              banks,
		BankCapacityBlocks: cfg.BankCapacityBlocks,
		Renaming:           cfg.Renaming,
		Lookahead:          cfg.Lookahead,
		LatencySlots:       cfg.LatencySlots,
		Org:                core.SRAMOrg(cfg.Organization),
		MMA:                core.MMAKind(cfg.MMA),
	}, nil
}

// New builds a buffer, applying the paper's dimensioning formulas to
// every parameter the caller leaves zero. Rejected configurations
// return errors matching ErrBadConfig.
func New(cfg Config) (*Buffer, error) {
	cc, err := coreConfig(cfg)
	if err != nil {
		return nil, err
	}
	inner, err := core.New(cc)
	if err != nil {
		return nil, err
	}
	return &Buffer{inner: inner, cfg: cfg}, nil
}

// Config returns the configuration the buffer was built from (as
// passed to New; see Sizing for the derived, as-built parameters).
func (b *Buffer) Config() Config { return b.cfg }

// Tick advances one slot. The slot completes even when a
// caller-visible error (ErrBufferFull, ErrUnknownQueue, ErrBadRequest)
// is returned: deliveries and internal transfers still occur.
func (b *Buffer) Tick(in Input) (Output, error) {
	out, err := b.inner.Tick(core.TickInput{
		Arrival: cell.QueueID(in.Arrival),
		Request: cell.QueueID(in.Request),
	})
	var pub Output
	if out.Delivered != nil {
		pub.Delivered = Cell{Queue: Queue(out.Delivered.Queue), Seq: out.Delivered.Seq}
		pub.Ok = true
		pub.Bypassed = out.Bypassed
	}
	return pub, err
}

// TickBatch advances one slot per element of in, writing slot i's
// outcome to out[i]. It requires len(out) ≥ len(in) and returns the
// number of slots ticked. On error it stops after the offending slot
// (which, per Tick semantics, still completed and has its outcome in
// out[n-1]). The outcome is identical to calling Tick once per
// element, statistics included — Stats.FastForwardedSlots aside.
//
// TickBatch is the batch entry point for precomputed stimulus, and
// sparse stimulus costs per event, not per slot. It reads the inputs
// in one pass. Each run of idle inputs (Arrival and Request both None)
// is scanned once; at each idle slot one quiescence probe decides
// whether the buffer can skip the rest of the run in O(1)
// (FastForward) with zero outputs, or must tick the slot. Every
// ticked slot runs the slot body Tick runs, exactly once, and writes
// its Output in place. There is no scratch and no allocation at all,
// from the first call. Outputs have value semantics as always: every
// out[i] remains valid indefinitely.
//
//pktbuf:hotpath
func (b *Buffer) TickBatch(in []Input, out []Output) (int, error) {
	if len(out) < len(in) {
		return 0, shortOutputError(len(out), len(in))
	}
	runEnd := 0 // end of the idle run scanned last
	for i := 0; i < len(in); i++ {
		v := in[i]
		if v.Arrival == None && v.Request == None {
			if runEnd <= i {
				runEnd = i + 1
				for runEnd < len(in) && in[runEnd].Arrival == None && in[runEnd].Request == None {
					runEnd++
				}
			}
			if b.inner.FastForward(uint64(runEnd-i)) != 0 {
				clear(out[i:runEnd])
				i = runEnd - 1
				continue
			}
		}
		var err error
		if out[i], err = b.Tick(v); err != nil {
			return i + 1, err
		}
	}
	return len(in), nil
}

// shortOutputError is TickBatch's cold argument-check error. It is
// not inlined, so its allocations stay out of the hot path's escape
// analysis.
//
//go:noinline
func shortOutputError(outs, ins int) error {
	return fmt.Errorf("pktbuf: TickBatch output slice too short: %d outputs for %d inputs: %w",
		outs, ins, ErrBadConfig)
}

// Quiescent reports whether the buffer has no internal work in flight:
// the request pipeline is empty, no DRAM transfer is pending or
// scheduled, and neither memory-management algorithm would order one.
// From a quiescent state an idle Tick is a pure time advance, and
// FastForward may skip any number of slots at once. Quiescent says
// nothing about stored cells — a buffer holding cells with no
// outstanding requests is quiescent until the next arrival or request.
func (b *Buffer) Quiescent() bool { return b.inner.Quiescent() }

// FastForward advances the buffer by n idle slots in O(1). It is
// bit-identical to n Tick calls with an idle Input from a quiescent
// state — identical statistics (FastForwardedSlots aside) and
// identical subsequent behavior. If the buffer is not quiescent
// nothing happens; the number of slots actually skipped (n or 0) is
// returned.
func (b *Buffer) FastForward(n uint64) uint64 { return b.inner.FastForward(n) }

// Len returns the number of cells of q currently buffered.
func (b *Buffer) Len(q Queue) int { return b.inner.Len(cell.QueueID(q)) }

// Requestable returns how many cells of q the scheduler may still
// request (buffered cells minus requests already in flight).
func (b *Buffer) Requestable(q Queue) int { return b.inner.Requestable(cell.QueueID(q)) }

// PendingRequests returns the number of admitted requests still in
// flight through the request pipeline (requested but not yet
// delivered). A drain loop may stop as soon as this reaches zero with
// no further requests issued.
func (b *Buffer) PendingRequests() int { return b.inner.PendingRequests() }

// ArrivedSeq returns the number of cells that have ever arrived for
// queue q — equivalently, the Seq the next arrival to q will carry.
// Samplers that attach to a live buffer (for example the sim
// package's latency tracker) use it to align with the per-queue
// numbering.
func (b *Buffer) ArrivedSeq(q Queue) uint64 { return b.inner.ArrivedSeq(cell.QueueID(q)) }

// DeliveredSeq returns the number of cells ever delivered for queue q
// — equivalently, the implicit Seq the next delivery of q will carry.
// Together with ArrivedSeq it lets a restored serving tier reconcile a
// resuming client: cells in [DeliveredSeq, ArrivedSeq) are still
// buffered and will be redelivered, cells at or above ArrivedSeq were
// never seen and must be resubmitted.
func (b *Buffer) DeliveredSeq(q Queue) uint64 { return b.inner.DeliveredSeq(cell.QueueID(q)) }

// Now returns the current slot number.
func (b *Buffer) Now() uint64 { return uint64(b.inner.Now()) }

// Stats returns a statistics snapshot.
func (b *Buffer) Stats() Stats { return statsFromCore(b.inner.Stats()) }

// statsFromCore maps the core statistics onto the public snapshot. It
// also backs the facade.PublicStats bridge used by pktbuf/router.
func statsFromCore(s core.Stats) Stats {
	return Stats{
		Arrivals: s.Arrivals, Requests: s.Requests, Deliveries: s.Deliveries,
		Bypasses: s.Bypasses, Misses: s.Misses, Drops: s.Drops,
		BadRequests:                 s.BadRequests,
		HeadOverflows:               s.HeadOverflows,
		TailSRAMHighWater:           s.TailHighWater,
		HeadSRAMHighWater:           s.HeadHighWater,
		MaxRequestRegisterOccupancy: s.DSS.MaxOccupancy,
		MaxRequestSkips:             s.DSS.MaxSkips,
		FastForwardedSlots:          s.FastForwardedSlots,
	}
}

// Sizing reports a buffer's dimensioned structure sizes — the paper's
// equations (1)-(4). DimensionFor computes the analytic values for a
// configuration without building it; Buffer.Sizing reports the
// as-built values: the head SRAM is the ECQF ledger bound Q(b−1) +
// L + Λ, which no ECQF run can overflow, and the tail SRAM adds the
// implementation's staging slack to the analytic bound.
type Sizing struct {
	// GranularityB is the RADS granularity B for the line rate.
	GranularityB int
	// Granularity is the resolved CFDS granularity b (B when the
	// configuration left it zero, the RADS baseline).
	Granularity int
	// Lookahead is the MMA lookahead in slots (the ECQF full lookahead
	// Q(b−1)+1 unless overridden).
	Lookahead int
	// HeadSRAMCells / TailSRAMCells are the SRAM sizes in 64 B cells
	// (DimensionFor's head size is equation (4)).
	HeadSRAMCells, TailSRAMCells int
	// RequestRegister is equation (1)'s RR size.
	RequestRegister int
	// MaxSkips is equation (2)'s reordering bound.
	MaxSkips int
	// LatencySlots is equation (3)'s latency register size.
	LatencySlots int
	// DelaySlots is the total request-to-delivery pipeline length.
	DelaySlots int
}

// Sizing returns the as-built structure sizes of this buffer (see
// Sizing for how they differ from DimensionFor's analytic ones).
func (b *Buffer) Sizing() Sizing {
	cfg := b.inner.Config()
	d := cfg.Dimension()
	return Sizing{
		GranularityB:    cfg.B,
		Granularity:     cfg.Bsmall,
		Lookahead:       cfg.Lookahead,
		HeadSRAMCells:   cfg.HeadSRAMCells,
		TailSRAMCells:   cfg.TailSRAMCells,
		RequestRegister: cfg.RRCapacity,
		MaxSkips:        d.MaxSkips(),
		LatencySlots:    cfg.LatencySlots,
		DelaySlots:      cfg.Lookahead + cfg.LatencySlots,
	}
}

// DimensionFor computes the paper's analytic sizing for a
// configuration. Invalid configurations (unknown LineRate,
// non-positive Queues/Banks, a Granularity that is negative or does
// not divide B) return errors matching ErrBadConfig.
func DimensionFor(cfg Config) (Sizing, error) {
	rate, err := cfg.LineRate.internal()
	if err != nil {
		return Sizing{}, err
	}
	bigB := rate.Granularity(cell.DefaultDRAMAccessNS)
	b := cfg.Granularity
	if b == 0 {
		b = bigB
	}
	banks := cfg.Banks
	if banks == 0 {
		banks = 256
	}
	look := cfg.Lookahead
	if look == 0 {
		look = dimension.FullLookahead(cfg.Queues, b)
	}
	d := dimension.Config{Q: cfg.Queues, B: bigB, Bsmall: b, M: banks, Lookahead: look}
	if err := d.Validate(); err != nil {
		return Sizing{}, fmt.Errorf("%w: %v", ErrBadConfig, err)
	}
	return Sizing{
		GranularityB:    bigB,
		Granularity:     b,
		Lookahead:       look,
		HeadSRAMCells:   d.HeadSRAMSize(),
		TailSRAMCells:   d.TailSRAMSize(),
		RequestRegister: d.RRSize(),
		MaxSkips:        d.MaxSkips(),
		LatencySlots:    d.LatencySlots(),
		DelaySlots:      d.DelaySlots(),
	}, nil
}
