// Package cell defines the basic data units of the packet buffer:
// fixed-size cells, logical and physical queue identifiers, time slots,
// and the line-rate parameters the paper evaluates (OC-192 through
// OC-3072).
//
// Following §2 of the paper, packets are internally fragmented into
// fixed-length 64-byte cells; the system operates synchronously in
// time slots equal to the transmission time of one cell at the line
// rate (3.2 ns at OC-3072).
package cell

import "fmt"

// Size is the cell size in bytes (§2, "Basic time-slot").
const Size = 64

// QueueID names a logical Virtual Output Queue (Qˡ in the paper's
// renaming scheme). Logical queue names are what the external
// scheduler uses.
type QueueID int32

// PhysQueueID names a physical queue (Qᵖ), the unit the DRAM banking
// and the renaming scheme operate on. Without renaming, logical and
// physical queues coincide one-to-one.
type PhysQueueID int32

// NoQueue is the sentinel for "no queue" in lookahead entries and
// request registers (the paper treats empty requests as requests to a
// special queue).
const NoQueue QueueID = -1

// NoPhysQueue is the physical-queue sentinel.
const NoPhysQueue PhysQueueID = -1

// Slot is a discrete time slot index since simulation start.
type Slot uint64

// AdvanceCursor moves a slot-indexed ring cursor i (in [0, size)) n
// slots on. A jump shorter than the ring, the common idle gap, costs
// one compare; only longer ones pay the division.
func AdvanceCursor(i int, n uint64, size int) int {
	if n < uint64(size) {
		if i += int(n); i >= size {
			i -= size
		}
		return i
	}
	return int((uint64(i) + n) % uint64(size))
}

// Cell is one 64-byte unit moving through the buffer. The simulator
// does not carry payload bytes; Queue and Seq identify the cell and
// let tests verify end-to-end FIFO delivery per logical queue.
//
// Cell is the value form at the buffer's edges (delivery, snapshots,
// tests). Inside the buffer no cell is stored on its own: a b-cell
// block is b consecutive arrivals of one queue, so the DRAM's block
// slab stores the block's Queue and its first Seq, and cell k of the
// block is (Queue, first+k) (dram.Slab); the tail SRAM counts the
// cells it has not yet staged or promised.
type Cell struct {
	// Queue is the logical VOQ the cell belongs to.
	Queue QueueID
	// Seq is the 0-based arrival ordinal of the cell within its
	// logical queue. Deliveries must be in strictly increasing Seq
	// order per queue.
	Seq uint64
}

// String implements fmt.Stringer.
func (c Cell) String() string {
	return fmt.Sprintf("cell{q=%d seq=%d}", c.Queue, c.Seq)
}

// LineRate identifies one of the SONET line rates considered in the
// paper's evaluation.
type LineRate int

// Line rates used in the paper (§2, §7).
const (
	// OC192 is 10 Gb/s.
	OC192 LineRate = iota
	// OC768 is 40 Gb/s.
	OC768
	// OC3072 is 160 Gb/s, the paper's headline target.
	OC3072
)

// String implements fmt.Stringer.
func (r LineRate) String() string {
	switch r {
	case OC192:
		return "OC-192"
	case OC768:
		return "OC-768"
	case OC3072:
		return "OC-3072"
	default:
		return fmt.Sprintf("LineRate(%d)", int(r))
	}
}

// Gbps returns the nominal line rate in gigabits per second.
func (r LineRate) Gbps() float64 {
	switch r {
	case OC192:
		return 10
	case OC768:
		return 40
	case OC3072:
		return 160
	default:
		return 0
	}
}

// SlotTimeNS returns the duration of one time slot in nanoseconds: the
// transmission time of a 64-byte cell at the line rate (§2). At
// OC-3072 this is 3.2 ns; at OC-768, 12.8 ns.
func (r LineRate) SlotTimeNS() float64 {
	g := r.Gbps()
	if g == 0 {
		return 0
	}
	return float64(Size*8) / g
}

// AccessBudgetNS returns the SRAM access-time budget for the rate:
// one cell must be read every slot, so the budget equals the slot
// time (§7.2).
func (r LineRate) AccessBudgetNS() float64 { return r.SlotTimeNS() }

// Granularity returns the paper's RADS data granularity B for the
// rate. The packet buffer bandwidth is twice the line rate (§2: every
// cell is both written and read), so each B-slot interval must fit one
// write access and one read access: B·slotTime ≥ 2·T_RC, rounded up to
// a power of two. With the paper's assumed 48 ns DRAM random access
// time this yields B=8 for OC-768 and B=32 for OC-3072 (§7).
func (r LineRate) Granularity(dramAccessNS float64) int {
	st := r.SlotTimeNS()
	if st == 0 {
		return 0
	}
	b := 1
	for float64(b)*st < 2*dramAccessNS {
		b *= 2
	}
	return b
}

// DefaultDRAMAccessNS is the DRAM random access time the paper assumes
// for its evaluation (§7: "assuming 48 ns of main DRAM random access
// time").
const DefaultDRAMAccessNS = 48.0

// BufferBytes returns the rule-of-thumb buffer capacity for the rate:
// round-trip time × line rate (§2, "Buffer size"; RTT 0.2 s at
// 160 Gb/s gives 4 GB).
func (r LineRate) BufferBytes(rttSeconds float64) uint64 {
	return uint64(r.Gbps() * 1e9 * rttSeconds / 8)
}
