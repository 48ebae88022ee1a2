package router_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/pktbuf"
	"repro/pktbuf/packet"
	"repro/pktbuf/router"
)

func benchEngine(b *testing.B, ports, classes int) *router.Engine {
	b.Helper()
	e, err := router.New(router.Config{
		Ports:   ports,
		Classes: classes,
		Buffer: pktbuf.Config{
			LineRate:    pktbuf.OC3072,
			Granularity: 4,
			Banks:       256,
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { e.Close() })
	return e
}

// driveEngine measures the per-slot cost of the whole engine
// (segmentation + per-port buffers + iSLIP + reassembly) under ~75%
// offered load (one 6-cell packet per port per 8 slots, uniform
// destinations) — sub-saturation, so occupancies plateau and the
// steady state stays allocation-free.
func driveEngine(b *testing.B, e *router.Engine, ports, classes int) {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	payload := make([]byte, 300)
	out := make([]router.Egress, 0, 4*ports)
	offer := func(slot int) {
		if slot%8 == 0 {
			for port := 0; port < ports; port++ {
				p := packet.Packet{
					Flow:    e.VOQ(rng.Intn(ports), rng.Intn(classes)),
					Payload: payload,
				}
				_ = e.Offer(port, p) // ingress-full is fine under load
			}
		}
	}
	// Warm rings, arenas and reassembly buffers before measuring.
	for s := 0; s < 6000; s++ {
		offer(s)
		var err error
		out, err = e.StepBatch(1, out[:0])
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		offer(i)
		var err error
		out, err = e.StepBatch(1, out[:0])
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	st := e.Stats()
	if st.Slots == 0 {
		b.Fatal("no slots")
	}
	b.ReportMetric(float64(st.SwitchedCells)/float64(st.Slots), "cells/slot")
}

// BenchmarkRouterStep is the whole engine across port counts.
func BenchmarkRouterStep(b *testing.B) {
	for _, ports := range []int{1, 4, 8, 16} {
		b.Run(fmt.Sprintf("ports=%d", ports), func(b *testing.B) {
			e := benchEngine(b, ports, 2)
			driveEngine(b, e, ports, 2)
		})
	}
}
