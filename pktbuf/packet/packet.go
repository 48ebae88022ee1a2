// Package packet is the segmentation and reassembly layer of the
// paper's §2: "packets in the router are internally fragmented into
// fixed-length 64 byte units that we call cells. Cells are handled as
// independent units, although they are reassembled at the output port
// before packet transmission."
//
// A Segmenter slices variable-length packets into cells tagged with
// the packet's flow (the VOQ); a Reassembler collects in-order cells
// per flow and emits completed packets. Because the packet buffer
// guarantees per-VOQ FIFO delivery, reassembly needs no sequence
// numbers beyond a per-packet cell count carried in the first cell's
// header — exactly the discipline real line cards use.
//
// The router engine (repro/pktbuf/router) sizes packets with CellCount,
// so a caller composing its own fabric from a Segmenter gets the cells
// the engine switches. SegmentAppend is the zero-allocation path;
// errors are typed sentinels matched with errors.Is.
package packet

import (
	"errors"
	"fmt"

	"repro/pktbuf"
)

// CellPayload is the number of packet bytes one 64-byte cell carries
// after the internal header (flow id, cell count, length). The
// paper's cell is 64 bytes; the model reserves an 8-byte header.
const CellPayload = pktbuf.CellSize - 8

// Errors returned by the reassembler, matched with errors.Is.
var (
	// ErrInterleaved reports a head cell arriving while the same flow
	// still had a partially reassembled packet — within one flow,
	// packets must not interleave.
	ErrInterleaved = errors.New("packet: cells of two packets interleaved within one flow")
	// ErrOrphanCell reports a continuation cell for a flow with no
	// packet head in progress.
	ErrOrphanCell = errors.New("packet: continuation cell without a packet head")
)

// Packet is a variable-length unit entering or leaving the router.
type Packet struct {
	// Flow identifies the (output port, class) stream — the VOQ.
	Flow pktbuf.Queue
	// Payload is the packet body.
	Payload []byte
}

// Cell is one segmented 64-byte unit: the flow identity the buffer
// transports plus the reassembly header fields.
type Cell struct {
	// Flow is the VOQ the cell travels in.
	Flow pktbuf.Queue
	// Head marks the first cell of a packet; Cells is the packet's
	// total cell count (valid on the head cell).
	Head  bool
	Cells int
	// Payload is this cell's slice of the packet body (it aliases the
	// segmented packet's payload).
	Payload []byte
}

// CellCount returns how many cells Segment produces for a packet of
// the given byte length (at least one: zero-length packets still
// occupy a head cell, as on real hardware).
func CellCount(bytes int) int {
	if bytes <= 0 {
		return 1
	}
	return (bytes + CellPayload - 1) / CellPayload
}

// Segmenter slices packets into cells.
type Segmenter struct {
	segmented uint64
}

// Segment fragments p into CellCount(len(p.Payload)) cells. Cell
// payloads alias p.Payload.
func (s *Segmenter) Segment(p Packet) []Cell {
	return s.SegmentAppend(make([]Cell, 0, CellCount(len(p.Payload))), p)
}

// SegmentAppend fragments p like Segment but appends the cells to dst
// and returns the extended slice, allocating only when dst lacks
// capacity — a caller reusing its backing array segments packets with
// zero steady-state allocation.
func (s *Segmenter) SegmentAppend(dst []Cell, p Packet) []Cell {
	n := CellCount(len(p.Payload))
	for i := 0; i < n; i++ {
		lo := i * CellPayload
		hi := lo + CellPayload
		if hi > len(p.Payload) {
			hi = len(p.Payload)
		}
		dst = append(dst, Cell{
			Flow:    p.Flow,
			Head:    i == 0,
			Cells:   n,
			Payload: p.Payload[lo:hi],
		})
	}
	s.segmented += uint64(n)
	return dst
}

// Segmented returns the number of cells produced so far.
func (s *Segmenter) Segmented() uint64 { return s.segmented }

// flowState is a partially reassembled packet.
type flowState struct {
	want, have int
	payload    []byte
}

// maxPresizeCells caps the payload capacity Push reserves from a head
// cell's Cells (14 336 bytes, above a 9 000-byte jumbo frame), so a
// corrupt or hostile count cannot force a large allocation; a longer
// packet grows by append past it.
const maxPresizeCells = 256

// Reassembler rebuilds packets from per-flow in-order cell streams
// (one Reassembler per output port). Flows may interleave with each
// other arbitrarily; within a flow, cells must arrive in order — the
// packet buffer guarantees exactly that.
type Reassembler struct {
	flows map[pktbuf.Queue]flowState
	done  uint64
}

// NewReassembler returns an empty reassembler.
func NewReassembler() *Reassembler {
	return &Reassembler{flows: make(map[pktbuf.Queue]flowState)}
}

// Push accepts the next cell of a flow. When the cell completes a
// packet it returns the packet and ok=true. The returned payload is
// freshly assembled and owned by the caller; it is sized from the head
// cell's Cells, so a packet costs one allocation.
func (r *Reassembler) Push(c Cell) (Packet, bool, error) {
	st, active := r.flows[c.Flow]
	if c.Head {
		if active {
			return Packet{}, false, fmt.Errorf("%w: flow %d (packet of %d cells had %d/%d)",
				ErrInterleaved, c.Flow, c.Cells, st.have, st.want)
		}
		n := max(1, min(c.Cells, maxPresizeCells))
		st = flowState{want: c.Cells, payload: make([]byte, 0, n*CellPayload)}
	} else if !active {
		return Packet{}, false, fmt.Errorf("%w: flow %d", ErrOrphanCell, c.Flow)
	}
	st.payload = append(st.payload, c.Payload...)
	st.have++
	if st.have < st.want {
		r.flows[c.Flow] = st
		return Packet{}, false, nil
	}
	delete(r.flows, c.Flow)
	r.done++
	return Packet{Flow: c.Flow, Payload: st.payload}, true, nil
}

// Pending returns the number of flows with a partially reassembled
// packet.
func (r *Reassembler) Pending() int { return len(r.flows) }

// Completed returns the number of packets emitted.
func (r *Reassembler) Completed() uint64 { return r.done }
