package router

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/pktbuf"
	"repro/pktbuf/packet"
)

// TestHeadSizingSweep is the router half of the head SRAM sizing sweep
// (the buffer half is pktbuf/sim's): the traffic of `pktbufsim -router
// -load 1` — uniform VOQs, a 40/576/1500-byte packet mix, every input
// paced at one cell per slot — for 30 000 slots over ports {4, 8, 16}
// × b {0, 2, 4, 8, 16, 32} × seeds 1–2, OC-3072 with 256 banks. Every
// line card's head SRAM, sized by the ECQF ledger bound, must take
// every landing whole and stay within its size; the hand-padded size
// this replaced overflowed at 16 ports with b = 0 and b = 32.
func TestHeadSizingSweep(t *testing.T) {
	const classes = 1
	for _, ports := range []int{4, 8, 16} {
		for _, b := range []int{0, 2, 4, 8, 16, 32} {
			for seed := int64(1); seed <= 2; seed++ {
				t.Run(fmt.Sprintf("ports%d/b%d/seed%d", ports, b, seed), func(t *testing.T) {
					t.Parallel()
					e, err := New(Config{Ports: ports, Buffer: pktbuf.Config{LineRate: pktbuf.OC3072, Granularity: b, Banks: 256}})
					if err != nil {
						t.Fatal(err)
					}
					rng := rand.New(rand.NewSource(seed))
					draw := func() packet.Packet {
						payload := make([]byte, [3]int{40, 576, 1500}[rng.Intn(3)])
						rng.Read(payload)
						return packet.Packet{Flow: e.VOQ(rng.Intn(ports), rng.Intn(classes)), Payload: payload}
					}
					credit := make([]float64, ports)
					next := make([]packet.Packet, ports)
					for p := range next {
						next[p] = draw()
					}
					var out []Egress
					for slot := 0; slot < 30000; slot++ {
						for p := range next {
							credit[p]++
							if cells := float64(packet.CellCount(len(next[p].Payload))); credit[p] >= cells {
								if e.Offer(p, next[p]) == nil {
									credit[p] -= cells
									next[p] = draw()
								}
							}
						}
						if out, err = e.StepBatch(1, out[:0]); err != nil {
							t.Fatalf("slot %d: %v", slot, err)
						}
					}
					for p, in := range e.inputs {
						st, size := in.buf.Stats(), in.buf.Config().HeadSRAMCells
						if st.HeadOverflows != 0 || st.HeadHighWater > size {
							t.Errorf("port %d: head overflows %d, high-water %d of %d cells", p, st.HeadOverflows, st.HeadHighWater, size)
						}
					}
				})
			}
		}
	}
}
