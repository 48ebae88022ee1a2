package router

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/pktbuf"
	"repro/pktbuf/packet"
)

// activeFlows counts the streams holding a partially reassembled
// packet.
func activeFlows(r *denseReassembler) int {
	n := 0
	for i := range r.flows {
		if r.flows[i].active {
			n++
		}
	}
	return n
}

func TestDenseReassemblerMultiCellPacket(t *testing.T) {
	var s packet.Segmenter
	r := newDenseReassembler(4)
	payload := bytes.Repeat([]byte{0xC3}, 3*packet.CellPayload+5)
	cells := s.Segment(packet.Packet{Flow: 2, Payload: payload})
	completed := 0
	for i, c := range cells {
		p, ok, err := r.push(c)
		if err != nil {
			t.Fatal(err)
		}
		if ok != (i == len(cells)-1) {
			t.Fatalf("cell %d: ok=%v", i, ok)
		}
		if ok {
			completed++
			if p.Flow != 2 || !bytes.Equal(p.Payload, payload) {
				t.Errorf("reassembled %+v", p)
			}
		}
	}
	if pending := activeFlows(r); pending != 0 || completed != 1 {
		t.Errorf("pending=%d completed=%d", pending, completed)
	}
}

func TestDenseReassemblerErrorSentinels(t *testing.T) {
	r := newDenseReassembler(2)
	if _, _, err := r.push(packet.Cell{Flow: 5, Head: true, Cells: 1}); !errors.Is(err, errFlowRange) {
		t.Errorf("err = %v, want errFlowRange", err)
	}
	if _, _, err := r.push(packet.Cell{Flow: -1, Head: true, Cells: 1}); !errors.Is(err, errFlowRange) {
		t.Errorf("err = %v, want errFlowRange", err)
	}
	if _, _, err := r.push(packet.Cell{Flow: 0}); !errors.Is(err, packet.ErrOrphanCell) {
		t.Errorf("err = %v, want ErrOrphanCell", err)
	}
	if _, _, err := r.push(packet.Cell{Flow: 0, Head: true, Cells: 2}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.push(packet.Cell{Flow: 0, Head: true, Cells: 2}); !errors.Is(err, packet.ErrInterleaved) {
		t.Errorf("err = %v, want ErrInterleaved", err)
	}
}

// TestDenseReassemblerSteadyStateZeroAlloc: once a stream has seen its
// largest packet, reassembling further packets allocates nothing.
func TestDenseReassemblerSteadyStateZeroAlloc(t *testing.T) {
	var s packet.Segmenter
	r := newDenseReassembler(2)
	payload := bytes.Repeat([]byte{9}, 5*packet.CellPayload)
	cells := make([]packet.Cell, 0, 8)
	push := func() {
		cells = s.SegmentAppend(cells[:0], packet.Packet{Flow: 1, Payload: payload})
		for _, c := range cells {
			if _, _, err := r.push(c); err != nil {
				t.Fatal(err)
			}
		}
	}
	push() // warm the stream's payload buffer
	if allocs := testing.AllocsPerRun(50, push); allocs != 0 {
		t.Errorf("steady-state dense reassembly allocated %.1f/op", allocs)
	}
}

// errClass names the sentinel an error matches, for comparing the two
// reassemblers' failures.
func errClass(err error) string {
	switch {
	case err == nil:
		return "nil"
	case errors.Is(err, packet.ErrOrphanCell):
		return "orphan"
	case errors.Is(err, packet.ErrInterleaved):
		return "interleaved"
	}
	return fmt.Sprintf("other(%v)", err)
}

// TestDenseReassemblerMatchesReassembler feeds the same seeded random
// interleavings of segmented packets over dense flow ids to the
// engine's dense reassembler and to packet.Reassembler, with orphan
// continuations and interleaved heads injected, and requires the same
// outcome on every push.
func TestDenseReassemblerMatchesReassembler(t *testing.T) {
	var orphans, interleaved int
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		flows := 1 + rng.Intn(16)
		var s packet.Segmenter
		streams := make([][]packet.Cell, flows)
		for f := range streams {
			for k := rng.Intn(6); k > 0; k-- {
				payload := make([]byte, rng.Intn(8*packet.CellPayload))
				rng.Read(payload)
				streams[f] = s.SegmentAppend(streams[f], packet.Packet{Flow: pktbuf.Queue(f), Payload: payload})
			}
		}
		next := make([]int, flows)
		dense, ref := newDenseReassembler(flows), packet.NewReassembler()
		for push := 0; ; push++ {
			ready := live(streams, next)
			if len(ready) == 0 {
				break
			}
			var c packet.Cell
			if f := rng.Intn(flows); rng.Intn(10) == 0 {
				// Inject a cell that breaks the flow's discipline: a
				// continuation with no packet in progress, or a head in
				// the middle of one. Neither reassembler keeps it.
				if next[f] == len(streams[f]) || streams[f][next[f]].Head {
					c = packet.Cell{Flow: pktbuf.Queue(f), Payload: []byte{0xEE}}
					orphans++
				} else {
					c = packet.Cell{Flow: pktbuf.Queue(f), Head: true, Cells: 2, Payload: []byte{0xEE}}
					interleaved++
				}
			} else {
				f := ready[rng.Intn(len(ready))]
				c = streams[f][next[f]]
				next[f]++
			}
			dp, dok, derr := dense.push(c)
			rp, rok, rerr := ref.Push(c)
			where := fmt.Sprintf("seed %d push %d (flow %d head %v)", seed, push, c.Flow, c.Head)
			if dc, rc := errClass(derr), errClass(rerr); dc != rc {
				t.Fatalf("%s: dense err %s, reference err %s", where, dc, rc)
			}
			if dok != rok {
				t.Fatalf("%s: dense ok=%v, reference ok=%v", where, dok, rok)
			}
			if dp.Flow != rp.Flow {
				t.Fatalf("%s: dense flow %d, reference flow %d", where, dp.Flow, rp.Flow)
			}
			if !bytes.Equal(dp.Payload, rp.Payload) {
				t.Fatalf("%s: payloads differ (%d vs %d bytes)", where, len(dp.Payload), len(rp.Payload))
			}
		}
		if p := activeFlows(dense); p != 0 || ref.Pending() != 0 {
			t.Fatalf("seed %d: pending dense=%d reference=%d after every stream drained", seed, p, ref.Pending())
		}
	}
	if orphans == 0 || interleaved == 0 {
		t.Fatalf("injected %d orphans and %d interleaved heads; want both", orphans, interleaved)
	}
}

// live lists the flows with cells left to push.
func live(streams [][]packet.Cell, next []int) []int {
	var fs []int
	for f := range streams {
		if next[f] < len(streams[f]) {
			fs = append(fs, f)
		}
	}
	return fs
}
