package packet_test

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"repro/pktbuf"
	"repro/pktbuf/packet"
)

func TestSegmentReassembleRoundTrip(t *testing.T) {
	var s packet.Segmenter
	r := packet.NewReassembler()
	payload := bytes.Repeat([]byte{0x5A}, 3*packet.CellPayload+11)
	cells := s.Segment(packet.Packet{Flow: 7, Payload: payload})
	if len(cells) != packet.CellCount(len(payload)) {
		t.Fatalf("got %d cells, want %d", len(cells), packet.CellCount(len(payload)))
	}
	if !cells[0].Head || cells[0].Cells != len(cells) {
		t.Errorf("head cell = %+v", cells[0])
	}
	for i, c := range cells {
		p, ok, err := r.Push(c)
		if err != nil {
			t.Fatal(err)
		}
		if ok != (i == len(cells)-1) {
			t.Fatalf("cell %d: ok=%v", i, ok)
		}
		if ok {
			if p.Flow != 7 || !bytes.Equal(p.Payload, payload) {
				t.Errorf("reassembled %+v", p)
			}
		}
	}
	if s.Segmented() != uint64(len(cells)) || r.Completed() != 1 || r.Pending() != 0 {
		t.Errorf("counters: segmented=%d completed=%d pending=%d", s.Segmented(), r.Completed(), r.Pending())
	}
}

func TestSegmentAppendZeroAlloc(t *testing.T) {
	var s packet.Segmenter
	payload := bytes.Repeat([]byte{1}, 6*packet.CellPayload)
	dst := s.SegmentAppend(make([]packet.Cell, 0, 8), packet.Packet{Flow: 1, Payload: payload})
	if len(dst) != 6 {
		t.Fatalf("got %d cells", len(dst))
	}
	allocs := testing.AllocsPerRun(50, func() {
		dst = s.SegmentAppend(dst[:0], packet.Packet{Flow: 1, Payload: payload})
	})
	if allocs != 0 {
		t.Errorf("SegmentAppend into capacity allocated %.1f/op", allocs)
	}
}

func TestReassembleErrors(t *testing.T) {
	r := packet.NewReassembler()
	if _, _, err := r.Push(packet.Cell{Flow: 5}); !errors.Is(err, packet.ErrOrphanCell) {
		t.Errorf("err = %v, want ErrOrphanCell", err)
	}
	if _, _, err := r.Push(packet.Cell{Flow: 5, Head: true, Cells: 2}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.Push(packet.Cell{Flow: 5, Head: true, Cells: 2}); !errors.Is(err, packet.ErrInterleaved) {
		t.Errorf("err = %v, want ErrInterleaved", err)
	}
}

func TestEmptyPacket(t *testing.T) {
	var s packet.Segmenter
	r := packet.NewReassembler()
	cells := s.Segment(packet.Packet{Flow: 2})
	if len(cells) != 1 || !cells[0].Head || len(cells[0].Payload) != 0 {
		t.Fatalf("empty packet cells = %+v", cells)
	}
	p, ok, err := r.Push(cells[0])
	if err != nil || !ok {
		t.Fatalf("push: ok=%v err=%v", ok, err)
	}
	if p.Flow != 2 || len(p.Payload) != 0 {
		t.Errorf("reassembled %+v", p)
	}
}

// FuzzSegmentReassemble round-trips arbitrary payloads through
// Segmenter→Reassembler and asserts the identity, for any flow id and
// any interleaving position of a second flow.
func FuzzSegmentReassemble(f *testing.F) {
	f.Add([]byte(nil), int32(0), uint8(0))
	f.Add([]byte("hello"), int32(3), uint8(1))
	f.Add(bytes.Repeat([]byte{0xAB}, 5*packet.CellPayload+1), int32(200), uint8(3))
	f.Fuzz(func(t *testing.T, payload []byte, flow int32, interleave uint8) {
		if flow < 0 {
			flow = -flow
		}
		var s packet.Segmenter
		r := packet.NewReassembler()
		cells := s.Segment(packet.Packet{Flow: pktbuf.Queue(flow), Payload: payload})
		if len(cells) != packet.CellCount(len(payload)) {
			t.Fatalf("segmented %d cells, want %d", len(cells), packet.CellCount(len(payload)))
		}
		// A second flow interleaves its head cell at an arbitrary
		// position; flows must reassemble independently.
		other := packet.Packet{Flow: pktbuf.Queue(flow) + 1, Payload: []byte{1, 2, 3}}
		otherCells := s.Segment(other)
		pos := int(interleave) % (len(cells) + 1)

		var got packet.Packet
		var done bool
		push := func(c packet.Cell) {
			p, ok, err := r.Push(c)
			if err != nil {
				t.Fatal(err)
			}
			if ok && p.Flow == pktbuf.Queue(flow) {
				if done {
					t.Fatal("packet completed twice")
				}
				got, done = p, true
			}
		}
		for i, c := range cells {
			if i == pos {
				push(otherCells[0])
			}
			push(c)
		}
		if pos == len(cells) {
			push(otherCells[0])
		}
		if !done {
			t.Fatal("packet never completed")
		}
		if !bytes.Equal(got.Payload, payload) {
			t.Fatalf("payload mismatch: %d bytes in, %d bytes out", len(payload), len(got.Payload))
		}
		if r.Pending() != 0 {
			t.Fatalf("pending flows = %d", r.Pending())
		}
	})
}

func TestCellCountBoundaries(t *testing.T) {
	tests := []struct{ bytes, want int }{
		{0, 1}, {-5, 1}, {1, 1}, {packet.CellPayload, 1}, {packet.CellPayload + 1, 2},
		{3 * packet.CellPayload, 3}, {1500, (1500 + packet.CellPayload - 1) / packet.CellPayload},
	}
	for _, tt := range tests {
		if got := packet.CellCount(tt.bytes); got != tt.want {
			t.Errorf("CellCount(%d) = %d, want %d", tt.bytes, got, tt.want)
		}
	}
}

func TestSegmentHeadFlagsAndPayload(t *testing.T) {
	var s packet.Segmenter
	payload := make([]byte, 2*packet.CellPayload+10)
	for i := range payload {
		payload[i] = byte(i)
	}
	cells := s.Segment(packet.Packet{Flow: 7, Payload: payload})
	if len(cells) != 3 {
		t.Fatalf("got %d cells", len(cells))
	}
	if !cells[0].Head || cells[1].Head || cells[2].Head {
		t.Error("head flags wrong")
	}
	if cells[0].Cells != 3 {
		t.Errorf("Cells = %d", cells[0].Cells)
	}
	var joined []byte
	for _, c := range cells {
		if c.Flow != 7 {
			t.Error("flow lost")
		}
		joined = append(joined, c.Payload...)
	}
	if !bytes.Equal(joined, payload) {
		t.Error("payload mangled")
	}
	if s.Segmented() != 3 {
		t.Errorf("Segmented = %d", s.Segmented())
	}
}

func TestSegmentEmptyPacketHeadCell(t *testing.T) {
	var s packet.Segmenter
	cells := s.Segment(packet.Packet{Flow: 1})
	if len(cells) != 1 || !cells[0].Head || len(cells[0].Payload) != 0 {
		t.Errorf("empty packet cells = %+v", cells)
	}
}

func TestReassembleMultiCellPacket(t *testing.T) {
	var s packet.Segmenter
	r := packet.NewReassembler()
	payload := []byte("hello, line card — this packet spans multiple 56-byte cell payloads for sure......")
	cells := s.Segment(packet.Packet{Flow: 3, Payload: payload})
	for i, c := range cells {
		p, ok, err := r.Push(c)
		if err != nil {
			t.Fatal(err)
		}
		if i < len(cells)-1 && ok {
			t.Fatal("completed early")
		}
		if i == len(cells)-1 {
			if !ok {
				t.Fatal("never completed")
			}
			if p.Flow != 3 || !bytes.Equal(p.Payload, payload) {
				t.Errorf("reassembled %+v", p)
			}
		}
	}
	if r.Pending() != 0 || r.Completed() != 1 {
		t.Errorf("Pending=%d Completed=%d", r.Pending(), r.Completed())
	}
}

func TestReassembleFlowsInterleaveFreely(t *testing.T) {
	// Cells of different flows may interleave arbitrarily; within a
	// flow they are in order (the buffer guarantees that).
	var s packet.Segmenter
	r := packet.NewReassembler()
	pA := packet.Packet{Flow: 1, Payload: bytes.Repeat([]byte{0xA}, 3*packet.CellPayload)}
	pB := packet.Packet{Flow: 2, Payload: bytes.Repeat([]byte{0xB}, 2*packet.CellPayload)}
	ca, cb := s.Segment(pA), s.Segment(pB)
	order := []packet.Cell{ca[0], cb[0], ca[1], cb[1], ca[2]}
	var done []packet.Packet
	for _, c := range order {
		p, ok, err := r.Push(c)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			done = append(done, p)
		}
	}
	if len(done) != 2 || done[0].Flow != 2 || done[1].Flow != 1 {
		t.Fatalf("completion order = %+v", done)
	}
	if !bytes.Equal(done[1].Payload, pA.Payload) || !bytes.Equal(done[0].Payload, pB.Payload) {
		t.Error("payloads mangled")
	}
}

func TestReassembleErrorSentinels(t *testing.T) {
	r := packet.NewReassembler()
	// Continuation with no head.
	if _, _, err := r.Push(packet.Cell{Flow: 5}); !errors.Is(err, packet.ErrOrphanCell) {
		t.Errorf("err = %v, want ErrOrphanCell", err)
	}
	// Two heads interleaved within one flow.
	if _, _, err := r.Push(packet.Cell{Flow: 5, Head: true, Cells: 2}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.Push(packet.Cell{Flow: 5, Head: true, Cells: 2}); !errors.Is(err, packet.ErrInterleaved) {
		t.Errorf("err = %v, want ErrInterleaved", err)
	}
}

func TestSegmentAppendReusesBackingArray(t *testing.T) {
	var s packet.Segmenter
	payload := bytes.Repeat([]byte{7}, 4*packet.CellPayload)
	dst := make([]packet.Cell, 0, 16)
	dst = s.SegmentAppend(dst, packet.Packet{Flow: 1, Payload: payload})
	if len(dst) != 4 {
		t.Fatalf("got %d cells", len(dst))
	}
	allocs := testing.AllocsPerRun(50, func() {
		dst = s.SegmentAppend(dst[:0], packet.Packet{Flow: 1, Payload: payload})
	})
	if allocs != 0 {
		t.Errorf("SegmentAppend into capacity allocated %.1f/op", allocs)
	}
	var joined []byte
	for _, c := range dst {
		joined = append(joined, c.Payload...)
	}
	if !bytes.Equal(joined, payload) {
		t.Error("payload mangled")
	}
}

// TestPropertySegmentReassembleIsIdentity: segmenting then
// reassembling any packet mix (interleaved across flows, in-order
// within flows) is the identity.
func TestPropertySegmentReassembleIsIdentity(t *testing.T) {
	f := func(seed int64, sizes []uint16) bool {
		if len(sizes) == 0 {
			return true
		}
		if len(sizes) > 32 {
			sizes = sizes[:32]
		}
		rng := rand.New(rand.NewSource(seed))
		var s packet.Segmenter
		r := packet.NewReassembler()

		// One packet per flow id (flows don't interleave packets).
		type stream struct {
			cells []packet.Cell
			next  int
			want  packet.Packet
		}
		var streams []*stream
		for i, size := range sizes {
			payload := make([]byte, int(size)%2000)
			rng.Read(payload)
			p := packet.Packet{Flow: pktbuf.Queue(i), Payload: payload}
			streams = append(streams, &stream{cells: s.Segment(p), want: p})
		}
		var got []packet.Packet
		for remaining := true; remaining; {
			remaining = false
			// Random interleave: advance a random stream one cell.
			perm := rng.Perm(len(streams))
			advanced := false
			for _, i := range perm {
				st := streams[i]
				if st.next >= len(st.cells) {
					continue
				}
				remaining = true
				if !advanced {
					p, ok, err := r.Push(st.cells[st.next])
					if err != nil {
						return false
					}
					st.next++
					advanced = true
					if ok {
						got = append(got, p)
					}
				}
			}
		}
		if len(got) != len(streams) {
			return false
		}
		byFlow := map[pktbuf.Queue]packet.Packet{}
		for _, p := range got {
			byFlow[p.Flow] = p
		}
		for _, st := range streams {
			p, ok := byFlow[st.want.Flow]
			if !ok || !bytes.Equal(p.Payload, st.want.Payload) {
				return false
			}
		}
		return r.Pending() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestReassemblerOneAllocPerPacket pins Push's cost: the caller-owned
// payload, sized from the head cell's Cells, is the only allocation a
// packet makes — no per-packet flow state, no append growth.
func TestReassemblerOneAllocPerPacket(t *testing.T) {
	var s packet.Segmenter
	for _, size := range []int{40, 300, 1500} {
		cells := s.Segment(packet.Packet{Flow: 3, Payload: make([]byte, size)})
		r := packet.NewReassembler()
		allocs := testing.AllocsPerRun(200, func() {
			for _, c := range cells {
				if _, _, err := r.Push(c); err != nil {
					t.Fatal(err)
				}
			}
		})
		if allocs > 1 {
			t.Errorf("%d B packet: %.1f allocations, want ≤ 1", size, allocs)
		}
	}
}

// TestReassemblerHostileCellCount feeds head cells whose Cells no
// segmenter produces: a huge count must not reserve a huge payload,
// and a non-positive one completes the packet without a panic.
func TestReassemblerHostileCellCount(t *testing.T) {
	r := packet.NewReassembler()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, ok, err := r.Push(packet.Cell{Flow: 1, Head: true, Cells: math.MaxInt, Payload: []byte{1}}); ok || err != nil {
		t.Fatalf("ok=%v err=%v, want a pending packet", ok, err)
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<16 {
		t.Errorf("a head cell claiming math.MaxInt cells allocated %d bytes", grew)
	}
	for _, cells := range []int{0, -1, math.MinInt} {
		p, ok, err := r.Push(packet.Cell{Flow: 2, Head: true, Cells: cells, Payload: []byte{7}})
		if !ok || err != nil || !bytes.Equal(p.Payload, []byte{7}) {
			t.Errorf("Cells=%d: %+v ok=%v err=%v, want the one-cell packet", cells, p, ok, err)
		}
	}
}
