package router_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"runtime"
	"testing"

	"repro/pktbuf"
	"repro/pktbuf/packet"
	"repro/pktbuf/router"
)

// FuzzEgressIsOffered drives an engine with arbitrary packets — sizes,
// flows and input ports read from the fuzz input — and requires every
// (input, VOQ) stream's egress to equal its accepted offers byte for
// byte and in order, each non-empty egress payload being the offered
// slice itself (the engine never copies a payload). Each 4-byte record offers one packet (input port,
// flow, 16-bit size folded into [0, 1 500]) and steps one slot; the
// engine then drains.
func FuzzEgressIsOffered(f *testing.F) {
	record := func(port, flow byte, size uint16) []byte {
		return binary.LittleEndian.AppendUint16([]byte{port, flow}, size)
	}
	var runs []byte
	for _, size := range []uint16{0, 1, 55, 56, 57, 1500} {
		f.Add(uint8(2), uint8(2), record(0, 1, size))
		for k := byte(0); k < 4; k++ {
			runs = append(runs, record(k, k+1, size)...)
		}
	}
	f.Add(uint8(4), uint8(2), runs)
	f.Add(uint8(1), uint8(1), bytes.Repeat(record(0, 0, 1500), 40))
	f.Fuzz(func(t *testing.T, ports, classes uint8, data []byte) {
		cfg := testConfig(1+int(ports)%4, 1+int(classes)%2, 1)
		e := mustEngine(t, cfg)
		type stream struct{ input, flow int }
		offered := map[stream][][]byte{}
		got := map[stream][][]byte{}
		collect := func(eg []router.Egress) {
			for _, g := range eg {
				if want := int(g.Packet.Flow) / cfg.Classes; g.Output != want {
					t.Fatalf("flow %d left on output %d, want %d", g.Packet.Flow, g.Output, want)
				}
				s := stream{g.Input, int(g.Packet.Flow)}
				got[s] = append(got[s], g.Packet.Payload)
			}
		}
		voqs := cfg.Ports * cfg.Classes
		for n := 0; len(data) >= 4 && n < 256; n, data = n+1, data[4:] {
			input, flow := int(data[0])%cfg.Ports, int(data[1])%voqs
			payload := make([]byte, int(binary.LittleEndian.Uint16(data[2:]))%1501)
			for k := range payload {
				payload[k] = byte(n*7 + k)
			}
			err := e.Offer(input, packet.Packet{Flow: e.VOQ(flow/cfg.Classes, flow%cfg.Classes), Payload: payload})
			switch {
			case err == nil:
				s := stream{input, flow}
				offered[s] = append(offered[s], payload)
			case !errors.Is(err, router.ErrIngressFull):
				t.Fatal(err)
			}
			eg, err := e.Step()
			if err != nil {
				t.Fatal(err)
			}
			collect(eg)
		}
		for spent := 0; e.Stats().DeliveredPackets < e.Stats().OfferedPackets; spent += 1000 {
			if spent > 1_000_000 {
				t.Fatalf("%d of %d packets delivered after %d drain slots", e.Stats().DeliveredPackets, e.Stats().OfferedPackets, spent)
			}
			eg, err := e.StepBatch(1000, nil)
			if err != nil {
				t.Fatal(err)
			}
			collect(eg)
		}
		for s, want := range offered {
			if len(got[s]) != len(want) {
				t.Fatalf("stream %+v: %d packets left, %d offered", s, len(got[s]), len(want))
			}
			for k := range want {
				if !bytes.Equal(got[s][k], want[k]) {
					t.Fatalf("stream %+v packet %d: egress payload differs from the offered one (%d vs %d B)", s, k, len(got[s][k]), len(want[k]))
				}
				if len(want[k]) > 0 && &got[s][k][0] != &want[k][0] {
					t.Fatalf("stream %+v packet %d: egress payload is a copy, not the offered slice", s, k)
				}
			}
		}
		if len(got) != len(offered) {
			t.Fatalf("egress on %d streams, offers on %d", len(got), len(offered))
		}
	})
}

// TestIngressBacklogMemoryPerPacket: an ingress backlog costs memory
// per packet, not per cell. 1 000 packets of 1 500 B are 27 000 cells;
// queued as cells of 40 B each they held over 1 MB.
func TestIngressBacklogMemoryPerPacket(t *testing.T) {
	cfg := testConfig(2, 1, 1)
	cfg.IngressCap = 1 << 15
	e := mustEngine(t, cfg)
	p := packet.Packet{Flow: e.VOQ(1, 0), Payload: make([]byte, 1500)}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < 1000; i++ {
		if err := e.Offer(0, p); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if got, want := e.IngressBacklog(0), 1000*packet.CellCount(1500); got != want {
		t.Fatalf("IngressBacklog = %d, want %d", got, want)
	}
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew > 160<<10 {
		t.Errorf("1 000 queued packets grew the live heap by %d KB, want ≤ 160 KB", grew>>10)
	}
	runtime.KeepAlive(e)
}

// TestEngineHeapAfterWarmup bounds the live heap an 8×2 engine holds
// after 65 536 slots at 75 % load of the 40/300/576/1500 B internet
// mix (4:3:2:1), offered from four shared payload buffers so that only
// the engine's own state is counted. Blocks move through each port's
// DRAM by slab handle and packets through its line card by slab index,
// and egress hands back the offered slices, so the engine holds about
// 420 KB; with per-block slices, per-VOQ run deques and an egress copy
// arena it held about 635 KB.
func TestEngineHeapAfterWarmup(t *testing.T) {
	if testing.Short() {
		t.Skip("steps 65 536 slots")
	}
	const (
		ports, classes = 8, 2
		slots, step    = 1 << 16, 64
		load           = 0.75
	)
	sizes := [...]int{40, 300, 576, 1500}
	weights := [...]int{4, 3, 2, 1}
	var payloads [len(sizes)][]byte
	wsum, meanCells := 0, 0.0
	for i, n := range sizes {
		payloads[i] = make([]byte, n)
		wsum += weights[i]
		meanCells += float64(weights[i] * packet.CellCount(n))
	}
	p := load / (meanCells / float64(wsum))
	rng := rand.New(rand.NewSource(43))
	egress := make([]router.Egress, 0, 256)

	before := liveHeap()
	e, err := router.New(router.Config{Ports: ports, Classes: classes, Buffer: pktbuf.Config{
		LineRate: pktbuf.OC3072, Granularity: 4, Banks: 256}})
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < slots; s += step {
		for k := 0; k < step*ports; k++ {
			if rng.Float64() >= p {
				continue
			}
			pick, size := rng.Intn(wsum), 0
			for pick >= weights[size] {
				pick -= weights[size]
				size++
			}
			pkt := packet.Packet{Flow: e.VOQ(rng.Intn(ports), rng.Intn(classes)), Payload: payloads[size]}
			if err := e.Offer(k%ports, pkt); err != nil && !errors.Is(err, router.ErrIngressFull) {
				t.Fatal(err)
			}
		}
		if egress, err = e.StepBatch(step, egress[:0]); err != nil {
			t.Fatal(err)
		}
	}
	grew := int64(liveHeap()) - int64(before)
	if e.Stats().DeliveredPackets == 0 {
		t.Fatal("nothing delivered")
	}
	if grew > 520<<10 {
		t.Errorf("engine holds %d KB of live heap after warm-up, want ≤ 520 KB", grew>>10)
	}
	t.Logf("engine live heap after %d slots: %d KB", slots, grew>>10)
	runtime.KeepAlive(e)
	runtime.KeepAlive(egress)
}

// liveHeap returns the live heap after two collections (the first may
// only queue finalizers).
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
