package main

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"repro/pktbuf"
	"repro/pktbuf/packet"
)

// hashInputs fingerprints a buffer stimulus.
func hashInputs(in []pktbuf.Input) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, x := range in {
		binary.LittleEndian.PutUint32(b[:4], uint32(x.Arrival))
		binary.LittleEndian.PutUint32(b[4:], uint32(x.Request))
		h.Write(b[:])
	}
	return h.Sum64()
}

// hashOffers fingerprints a router schedule.
func hashOffers(os []offer) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, o := range os {
		binary.LittleEndian.PutUint32(b[:4], o.slot)
		b[4], b[5], b[6], b[7] = o.port, o.output, o.class, o.size
		h.Write(b[:])
	}
	return h.Sum64()
}

// Every generator is a pure function of the seed: equal across two
// calls, different across seeds.
func TestStimulusIsAFunctionOfTheSeed(t *testing.T) {
	type gen func(seed int64) uint64
	gens := map[string]gen{
		"dense": func(seed int64) uint64 {
			steady, _ := denseStimulus(seed, denseQueues, denseBatch)
			return hashInputs(steady)
		},
		"sparse": func(seed int64) uint64 {
			steady, _ := sparseStimulus(seed, sparseQueues, 1<<14, sparseGap, sparseLoad)
			return hashInputs(steady)
		},
		"router": func(seed int64) uint64 {
			return hashOffers(routerSchedule(seed, routerPorts, routerClasses, 1<<12, routerLoad, packet.CellPayload))
		},
		"flows": func(seed int64) uint64 {
			var in []pktbuf.Input
			for conn := 0; conn < serveConns; conn++ {
				for _, p := range flowPicks(seed, conn, serveFlows, 1<<10) {
					in = append(in, pktbuf.Input{Arrival: pktbuf.Queue(p)})
				}
			}
			return hashInputs(in)
		},
	}
	for name, g := range gens {
		if g(1) != g(1) {
			t.Errorf("%s: two calls with seed 1 differ", name)
		}
		if g(1) == g(2) {
			t.Errorf("%s: seeds 1 and 2 give the same stimulus", name)
		}
	}
	if a, b := flowPicks(1, 0, serveFlows, 64), flowPicks(1, 1, serveFlows, 64); string(a) == string(b) {
		t.Error("two connections of one seed pick the same flows")
	}
}

func TestDenseStimulusCyclesEveryQueue(t *testing.T) {
	steady, fill := denseStimulus(3, 16, 64)
	seen := map[pktbuf.Queue]int{}
	for i, in := range steady {
		if in.Arrival != in.Request || fill[i].Arrival != in.Arrival || fill[i].Request != pktbuf.None {
			t.Fatalf("slot %d: steady %+v fill %+v", i, in, fill[i])
		}
		seen[in.Arrival]++
	}
	for q := pktbuf.Queue(0); q < 16; q++ {
		if seen[q] != 4 {
			t.Errorf("queue %d appears %d times in 4 cycles", q, seen[q])
		}
	}
}

// The sparse stimulus is balanced cyclically: every arrival has its
// request gap slots later (wrapping), and the warm pass masks exactly
// the wrapped requests.
func TestSparseStimulusBalanced(t *testing.T) {
	const slots, gap = 1 << 12, 8
	steady, warm := sparseStimulus(5, 64, slots, gap, 0.05)
	arrivals := 0
	for i, in := range steady {
		if in.Arrival == pktbuf.None {
			continue
		}
		arrivals++
		if got := steady[(i+gap)%slots].Request; got != in.Arrival {
			t.Fatalf("arrival to %d at slot %d: request at +%d is %d", in.Arrival, i, gap, got)
		}
	}
	if share := float64(arrivals) / slots; math.Abs(share-0.05) > 0.01 {
		t.Errorf("arrival share %v, want ~0.05", share)
	}
	requests := 0
	for i := range steady {
		if steady[i].Request != pktbuf.None {
			requests++
		}
		wantWarm := steady[i]
		if i < gap {
			wantWarm.Request = pktbuf.None
		}
		if warm[i] != wantWarm {
			t.Fatalf("warm slot %d = %+v, want %+v", i, warm[i], wantWarm)
		}
	}
	if requests != arrivals {
		t.Errorf("%d requests for %d arrivals", requests, arrivals)
	}
}

func TestRouterScheduleLoad(t *testing.T) {
	const slots = 1 << 14
	sched := routerSchedule(9, routerPorts, routerClasses, slots, routerLoad, packet.CellPayload)
	cells, last := 0, uint32(0)
	for _, o := range sched {
		if o.slot < last {
			t.Fatal("offers are not in slot order")
		}
		last = o.slot
		if int(o.port) >= routerPorts || int(o.output) >= routerPorts || int(o.class) >= routerClasses {
			t.Fatalf("offer out of range: %+v", o)
		}
		cells += packet.CellCount(routerSizes[o.size])
	}
	if load := float64(cells) / (slots * routerPorts); math.Abs(load-routerLoad) > 0.03 {
		t.Errorf("offered load %v cells per slot and port, want ~%v", load, routerLoad)
	}
}
