// VOQ router: the input-queued router of the paper's Figure 1, built
// on the public router engine. Four input ports each hold a VOQ
// packet buffer with one logical queue per (output port, service
// class); the engine's iSLIP fabric scheduler matches inputs to
// outputs every slot and pulls cells through the buffers.
//
// The example forwards a bursty traffic mix for 50k slots and reports
// per-port throughput and the buffers' invariant verdicts.
//
// Run with: go run ./examples/voqrouter
package main

import (
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
	slots   = 50000
)

// arrival draws one port's packet for this burst: bursty toward a
// "hot" output that rotates per port, mixed over two service classes.
func arrival(e *router.Engine, rng *rand.Rand, port, slot int) packet.Packet {
	var output int
	if rng.Float64() < 0.5 {
		output = (port + slot/2048) % ports // rotating hotspot
	} else {
		output = rng.Intn(ports)
	}
	class := 0
	if rng.Float64() < 0.3 {
		class = 1
	}
	// ~2.4 cells mean packet size at 85% offered load per port.
	payload := make([]byte, rng.Intn(4*packet.CellPayload))
	rng.Read(payload)
	return packet.Packet{Flow: e.VOQ(output, class), Payload: payload}
}

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

	rng := rand.New(rand.NewSource(1000))
	// forwarded[input][output] counts packets switched per pair.
	var forwarded [ports][ports]int
	out := make([]router.Egress, 0, 64)
	for slot := 0; slot < slots; slot++ {
		for port := 0; port < ports; port++ {
			// One packet per port per ~2.8 slots ≈ 85% offered load in
			// cells.
			if rng.Float64() < 0.35 {
				p := arrival(eng, rng, port, slot)
				if err := eng.Offer(port, p); err != nil {
					log.Fatalf("port %d slot %d: %v", port, slot, err)
				}
			}
		}
		out, err = eng.StepBatch(1, out[:0])
		if err != nil {
			log.Fatalf("slot %d: %v", slot, err)
		}
		for _, e := range out {
			forwarded[e.Input][e.Output]++
		}
	}

	fmt.Printf("%-8s %12s %12s %10s %s\n", "port", "arrivals", "switched", "misses", "per-output")
	st := eng.Stats()
	allClean := true
	for p := 0; p < ports; p++ {
		bs := eng.BufferStats(p)
		sum := 0
		for _, n := range forwarded[p] {
			sum += n
		}
		allClean = allClean && bs.Clean()
		fmt.Printf("in[%d]    %12d %12d %10d %v\n", p, bs.Arrivals, sum, bs.Misses, forwarded[p])
	}
	fmt.Printf("\nfabric: %.2f cells/slot switched, %.2f matches/slot across %d ports\n",
		float64(st.SwitchedCells)/float64(st.Slots),
		float64(st.Matches)/float64(st.Slots), ports)
	fmt.Printf("packets: %d offered, %d delivered\n", st.OfferedPackets, st.DeliveredPackets)
	if allClean {
		fmt.Println("OK: all port buffers clean (zero misses, zero conflicts)")
	} else {
		log.Fatal("FAILED: a buffer violated its guarantees")
	}
}
