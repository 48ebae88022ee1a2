package main

import (
	"math/rand"

	"repro/pktbuf"
)

// Every stimulus is a pure function of the seed: the program under
// test receives only these generated inputs. Each generator salts the
// seed so two workloads never share a stream.

func seeded(seed int64, salt int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*1000003 + salt))
}

// denseStimulus is the §3 adversary for buffer_dense: one arrival and
// one request per slot, both cycling the queues round-robin from a
// seeded starting queue (round-robin order is the adversary's; a
// seeded permutation of the queues is a different, cache-hostile
// pattern that ran 4.8 M instead of 6.0 M slots/s). The batch length is a whole number of cycles,
// so every batch replays the same pattern against steady occupancies.
// fill is the arrival-only version used to pre-load the queues.
func denseStimulus(seed int64, queues, batch int) (steady, fill []pktbuf.Input) {
	first := seeded(seed, 1).Intn(queues)
	steady = make([]pktbuf.Input, batch)
	fill = make([]pktbuf.Input, batch)
	for i := range steady {
		q := pktbuf.Queue((first + i) % queues)
		steady[i] = pktbuf.Input{Arrival: q, Request: q}
		fill[i] = pktbuf.Input{Arrival: q, Request: pktbuf.None}
	}
	return steady, fill
}

// sparseStimulus is buffer_sparse's input: over slots slots, a
// Bernoulli(load) arrival to a uniform queue, and a request for each
// cell gap slots after it arrives. The sequence is cyclic: requests of
// the last gap slots wrap to the start, so replaying it end to end
// keeps every queue balanced. warm is the first pass, with the wrapped
// requests masked (nothing has arrived for them yet).
func sparseStimulus(seed int64, queues, slots, gap int, load float64) (steady, warm []pktbuf.Input) {
	rng := seeded(seed, 2)
	steady = make([]pktbuf.Input, slots)
	for i := range steady {
		steady[i] = pktbuf.Input{Arrival: pktbuf.None, Request: pktbuf.None}
	}
	for i := range steady {
		if rng.Float64() < load {
			q := pktbuf.Queue(rng.Intn(queues))
			steady[i].Arrival = q
			steady[(i+gap)%slots].Request = q
		}
	}
	warm = append([]pktbuf.Input(nil), steady...)
	for i := 0; i < gap; i++ {
		warm[i].Request = pktbuf.None
	}
	return steady, warm
}

// Router packet sizes in bytes and their weights: the classic
// 40/300/576/1500 internet mix, 4:3:2:1.
var (
	routerSizes   = [...]int{40, 300, 576, 1500}
	routerWeights = [...]int{4, 3, 2, 1}
)

// offer is one packet of the router schedule.
type offer struct {
	slot   uint32 // slot of the cycle it is offered in
	port   uint8
	output uint8
	class  uint8
	size   uint8 // index into routerSizes
}

// routerSchedule draws, for a cycle of slots slots, the packets each
// of ports inputs is offered: per slot and port one packet with the
// probability that makes the offered load `load` cells per slot, its
// size from the weighted mix, its output and class uniform. Offers are
// in slot order.
func routerSchedule(seed int64, ports, classes, slots int, load float64, cellPayload int) []offer {
	rng := seeded(seed, 3)
	wsum, meanCells := 0, 0.0
	for i, w := range routerWeights {
		wsum += w
		meanCells += float64(w) * float64((routerSizes[i]+cellPayload-1)/cellPayload)
	}
	meanCells /= float64(wsum)
	p := load / meanCells
	var out []offer
	for s := 0; s < slots; s++ {
		for port := 0; port < ports; port++ {
			if rng.Float64() >= p {
				continue
			}
			pick, size := rng.Intn(wsum), 0
			for pick >= routerWeights[size] {
				pick -= routerWeights[size]
				size++
			}
			out = append(out, offer{
				slot: uint32(s), port: uint8(port),
				output: uint8(rng.Intn(ports)), class: uint8(rng.Intn(classes)), size: uint8(size),
			})
		}
	}
	return out
}

// flowPicks is the serve workloads' flow choice: for connection conn,
// n uniform picks among flows local flow indices, cycled by the
// submitter.
func flowPicks(seed int64, conn, flows, n int) []uint8 {
	rng := seeded(seed, 4+int64(conn))
	out := make([]uint8, n)
	for i := range out {
		out[i] = uint8(rng.Intn(flows))
	}
	return out
}
