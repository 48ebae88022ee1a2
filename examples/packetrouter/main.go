// Packet router: drives the full system of the paper's Figure 1 —
// variable-length packets segmented into 64-byte cells, buffered in
// per-input VOQ packet buffers (CFDS), switched by an iSLIP fabric
// matching, and reassembled at the output ports — entirely through
// the public router engine, and byte-verifies every packet.
//
// The engine guarantees per-(input, flow) FIFO delivery, so the
// harness keeps each stream's offered payloads in a FIFO and compares
// the egress byte-for-byte: a single misordered, duplicated or lost
// cell anywhere in the fabric surfaces as a mismatch here.
//
// Run with: go run ./examples/packetrouter
package main

import (
	"bytes"
	"fmt"
	"log"
	"math/rand"

	"repro/pktbuf"
	"repro/pktbuf/packet"
	"repro/pktbuf/router"
)

const (
	ports   = 4
	classes = 2
	voqs    = ports * classes
	slots   = 60000
)

func main() {
	log.SetFlags(0)

	eng, err := router.New(router.Config{
		Ports:   ports,
		Classes: classes,
		Buffer: pktbuf.Config{
			LineRate:    pktbuf.OC3072,
			Granularity: 4,
			Banks:       256,
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer eng.Close()

	rng := rand.New(rand.NewSource(2003))
	// expected[input][flow] is the FIFO of payloads in flight on one
	// (input, VOQ) stream.
	var expected [ports][voqs][][]byte
	offered, bytesIn, verified := 0, 0, 0

	verify := func(eg []router.Egress) {
		for _, e := range eg {
			q := expected[e.Input][e.Packet.Flow]
			if len(q) == 0 {
				log.Fatalf("unexpected packet at output %d from input %d", e.Output, e.Input)
			}
			if !bytes.Equal(q[0], e.Packet.Payload) {
				log.Fatalf("corrupted packet from input %d flow %d (%d bytes)",
					e.Input, e.Packet.Flow, len(q[0]))
			}
			expected[e.Input][e.Packet.Flow] = q[1:]
			verified++
		}
	}

	out := make([]router.Egress, 0, 64)
	step := func(n int) {
		var err error
		out, err = eng.StepBatch(n, out[:0])
		if err != nil {
			log.Fatal(err)
		}
		verify(out)
	}

	for slot := 0; slot < slots; slot++ {
		// ~5% packet arrival probability per input per slot — roughly
		// 60% offered load in cells with the trimodal size mix below.
		if rng.Float64() < 0.05 {
			in := rng.Intn(ports)
			flow := eng.VOQ(rng.Intn(ports), rng.Intn(classes))
			// Internet-ish trimodal sizes: 40 B acks, 576 B, 1500 B MTU.
			var size int
			switch rng.Intn(3) {
			case 0:
				size = 40
			case 1:
				size = 576
			default:
				size = 1500
			}
			payload := make([]byte, size)
			rng.Read(payload)
			if err := eng.Offer(in, packet.Packet{Flow: flow, Payload: payload}); err != nil {
				log.Fatalf("offer: %v", err)
			}
			expected[in][flow] = append(expected[in][flow], payload)
			offered++
			bytesIn += size
		}
		step(1)
	}
	// Drain what remains.
	for slot := 0; slot < 10*slots && verified < offered; slot += 64 {
		step(64)
	}

	st := eng.Stats()
	fmt.Printf("offered packets:   %d (%d bytes)\n", offered, bytesIn)
	fmt.Printf("delivered packets: %d (byte-verified)\n", verified)
	fmt.Printf("switched cells:    %d (%.2f cells/slot)\n",
		st.SwitchedCells, float64(st.SwitchedCells)/float64(slots))
	clean := true
	for p := 0; p < ports; p++ {
		if bs := eng.BufferStats(p); !bs.Clean() {
			clean = false
			fmt.Printf("input %d buffer NOT clean: %+v\n", p, bs)
		}
	}
	if verified == offered && clean {
		fmt.Println("OK: every packet delivered byte-identical; all buffers clean")
	} else {
		log.Fatalf("FAILED: verified %d of %d", verified, offered)
	}
}
