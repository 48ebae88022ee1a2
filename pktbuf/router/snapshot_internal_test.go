package router

import (
	"bytes"
	"errors"
	"hash/fnv"
	"math/rand"
	"strings"
	"testing"

	"repro/pktbuf"
	"repro/pktbuf/packet"
)

// TestPortSnapshotBytesPinned pins the snapshot bytes of router line
// card buffers: an 8×2 OC-3072 engine (b = 4, 256 banks) under seeded
// packet traffic, every port's buffer snapshotted at several slots
// across the b-slot MMA cycle, FNV-64 over all of them. The constant
// was taken when DRAM blocks were carried as cell slices, and moved
// once since, when the default head SRAM size became the ECQF ledger
// bound (the framed headcells attribute is the only changed field).
func TestPortSnapshotBytesPinned(t *testing.T) {
	const want = 0xea39fddf6e13d4aa
	e, err := New(Config{Ports: 8, Classes: 2, Buffer: pktbuf.Config{
		LineRate: pktbuf.OC3072, Granularity: 4, Banks: 256}})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4301))
	sizes := [...]int{40, 300, 576, 1500}
	h := fnv.New64a()
	comps, rrs := 0, 0
	for slot := 1; slot <= 3000; slot++ {
		for port := 0; port < 8; port++ {
			if rng.Intn(12) != 0 {
				continue
			}
			p := packet.Packet{Flow: e.VOQ(rng.Intn(8), rng.Intn(2)), Payload: make([]byte, sizes[rng.Intn(4)])}
			if err := e.Offer(port, p); err != nil && !errors.Is(err, ErrIngressFull) {
				t.Fatal(err)
			}
		}
		if _, err := e.Step(); err != nil {
			t.Fatalf("slot %d: %v", slot, err)
		}
		if slot%500 != 0 && (slot < 2000 || slot >= 2008) {
			continue
		}
		for _, in := range e.inputs {
			var snap bytes.Buffer
			if err := in.buf.Snapshot(&snap); err != nil {
				t.Fatal(err)
			}
			h.Write(snap.Bytes())
			if !strings.Contains(snap.String(), "!comp buckets=0") {
				comps++
			}
			if !strings.Contains(snap.String(), "!dss rr=0 ") {
				rrs++
			}
		}
	}
	if comps == 0 || rrs == 0 {
		t.Fatalf("%d snapshots held completions and %d Requests Register entries; the pin needs both in flight", comps, rrs)
	}
	if got := h.Sum64(); got != want {
		t.Errorf("port snapshot bytes FNV-64 = %#x, want %#x", got, uint64(want))
	}
}
