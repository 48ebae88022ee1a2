package router

import (
	"errors"
	"fmt"

	"repro/pktbuf/packet"
)

// errFlowRange reports a cell whose flow id lies outside a dense
// reassembler's range.
var errFlowRange = errors.New("router: flow id outside the reassembler's dense range")

// denseFlow is one stream's slot in the dense reassembly arena. The
// payload buffer is retained across packets so steady-state reassembly
// performs no allocation once every stream has seen its largest packet.
type denseFlow struct {
	want, have int
	active     bool
	payload    []byte
}

// denseReassembler is an output port's reassembler over the dense
// (input, class) stream ids in [0, flows): the arena counterpart of
// packet.Reassembler, with a slice of reusable flow states in place of
// the map and the per-packet allocations.
type denseReassembler struct {
	flows []denseFlow
}

func newDenseReassembler(flows int) *denseReassembler {
	return &denseReassembler{flows: make([]denseFlow, flows)}
}

// push accepts the next cell of a stream, with packet.Reassembler's
// error rules. When the cell completes a packet it returns the packet
// and ok=true. The returned payload aliases the stream's reused
// buffer: it is valid until the stream's next packet completes, so
// callers that retain it must copy.
func (r *denseReassembler) push(c packet.Cell) (packet.Packet, bool, error) {
	if c.Flow < 0 || int(c.Flow) >= len(r.flows) {
		return packet.Packet{}, false, fmt.Errorf("%w: %d (dense range [0, %d))", errFlowRange, c.Flow, len(r.flows))
	}
	st := &r.flows[c.Flow]
	if c.Head {
		if st.active {
			return packet.Packet{}, false, fmt.Errorf("%w: flow %d (packet of %d cells had %d/%d)",
				packet.ErrInterleaved, c.Flow, c.Cells, st.have, st.want)
		}
		st.active = true
		st.want = c.Cells
		st.have = 0
		st.payload = st.payload[:0]
	} else if !st.active {
		return packet.Packet{}, false, fmt.Errorf("%w: flow %d", packet.ErrOrphanCell, c.Flow)
	}
	st.payload = append(st.payload, c.Payload...)
	st.have++
	if st.have < st.want {
		return packet.Packet{}, false, nil
	}
	st.active = false
	return packet.Packet{Flow: c.Flow, Payload: st.payload}, true, nil
}
