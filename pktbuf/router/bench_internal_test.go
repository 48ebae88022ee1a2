package router

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/pktbuf/packet"
)

// BenchmarkRouterStepQuarterLoad measures the per-slot cost of the
// whole router (segmentation + 4 buffers + iSLIP + reassembly) with one
// 300-byte packet offered every 4 slots, built over an exact
// core.Config and ticking every slot (no quiescence probe).
func BenchmarkRouterStepQuarterLoad(b *testing.B) {
	b.ReportAllocs()
	r, err := newEngine(Config{Ports: 4, Classes: 2}, core.Config{B: 32, Bsmall: 4, Banks: 256})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	payload := make([]byte, 300)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%4 == 0 {
			in := rng.Intn(4)
			p := packet.Packet{Flow: r.VOQ(rng.Intn(4), rng.Intn(2)), Payload: payload}
			_ = r.Offer(in, p)
		}
		if _, err := denseStep(r); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	st := r.Stats()
	if st.Slots == 0 {
		b.Fatal("no slots")
	}
	b.ReportMetric(float64(st.SwitchedCells)/float64(st.Slots), "cells/slot")
}
