package pktbuf_test

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/dss"
	"repro/internal/rename"
	"repro/internal/sram"
	"repro/pktbuf"
)

// restoreSeeds are the warmed buffers FuzzRestoreSnapshot takes its
// seed snapshots from; the fuzzer's first argument picks the
// configuration a (mutated) snapshot is restored into.
var restoreSeeds = []struct {
	name  string
	cfg   pktbuf.Config
	load  float64 // arrival and request probability per slot
	slots int
}{
	{"dense-ecqf", pktbuf.Config{Queues: 8, LineRate: pktbuf.OC768, Granularity: 4, Banks: 16}, 0.95, 1500},
	{"renaming", pktbuf.Config{Queues: 8, LineRate: pktbuf.OC768, Granularity: 4, Banks: 16,
		Renaming: true, BankCapacityBlocks: 64}, 0.95, 1500},
	{"list-sram", pktbuf.Config{Queues: 8, LineRate: pktbuf.OC768, Granularity: 4, Banks: 16,
		Organization: pktbuf.UnifiedLinkedList}, 0.95, 1500},
	{"sparse-bypass", pktbuf.Config{Queues: 8, LineRate: pktbuf.OC768, Granularity: 4, Banks: 16,
		Lookahead: 4, LatencySlots: 12}, 0.05, 3000},
}

// engineErrors are the sentinels a buffer's Tick may wrap: the public
// taxonomy and the invariant sentinels of the engine's substrates.
var engineErrors = []error{
	pktbuf.ErrBufferFull, pktbuf.ErrUnknownQueue, pktbuf.ErrBadRequest,
	core.ErrMiss, core.ErrTailOverflow, core.ErrOutOfOrder,
	sram.ErrFull, sram.ErrDuplicate, sram.ErrMissing, sram.ErrOrder,
	dram.ErrBankConflict, dram.ErrGroupFull, dram.ErrQueueEmpty, dram.ErrBadBlock, dram.ErrBadOrdinal,
	dss.ErrRRFull,
	rename.ErrRegisterFull, rename.ErrNoFreeNames, rename.ErrNoEntry, rename.ErrUnderflow, rename.ErrNotTail,
}

// driveRestored ticks buf for n slots of seeded traffic at load, half
// slot by slot and half through TickBatch (whose idle runs probe
// quiescence and fast-forward), and returns the first error that wraps
// none of engineErrors.
func driveRestored(buf *pktbuf.Buffer, rng *rand.Rand, load float64, n int) error {
	q := buf.Config().Queues
	next := func() pktbuf.Input {
		in := pktbuf.Input{Arrival: pktbuf.None, Request: pktbuf.None}
		if rng.Float64() < load {
			in.Arrival = pktbuf.Queue(rng.Intn(q))
		}
		if r := pktbuf.Queue(rng.Intn(q)); rng.Float64() < load && buf.Requestable(r) > 0 {
			in.Request = r
		}
		return in
	}
	check := func(err error) error {
		if err == nil {
			return nil
		}
		for _, s := range engineErrors {
			if errors.Is(err, s) {
				return nil
			}
		}
		return err
	}
	for range n / 2 {
		if _, err := buf.Tick(next()); check(err) != nil {
			return err
		}
	}
	in := make([]pktbuf.Input, n-n/2)
	out := make([]pktbuf.Output, len(in))
	for i := range in {
		in[i] = next()
	}
	for len(in) > 0 {
		k, err := buf.TickBatch(in, out)
		if check(err) != nil {
			return err
		}
		in, out = in[k:], out[k:]
	}
	return nil
}

// FuzzRestoreSnapshot feeds mutated snapshots of warmed buffers to
// Restore. Restore must either fail, or return a buffer that runs
// 1 000 more slots without a panic and with only errors that wrap an
// engine sentinel: a corrupt checkpoint is rejected or contained,
// never a crash of the process restoring it.
func FuzzRestoreSnapshot(f *testing.F) {
	for i, s := range restoreSeeds {
		buf, err := pktbuf.New(s.cfg)
		if err != nil {
			f.Fatal(err)
		}
		if err := driveRestored(buf, rand.New(rand.NewSource(int64(i))), s.load, s.slots); err != nil {
			f.Fatalf("%s: warming: %v", s.name, err)
		}
		var snap bytes.Buffer
		if err := buf.Snapshot(&snap); err != nil {
			f.Fatal(err)
		}
		f.Add(uint8(i), snap.Bytes())
	}
	f.Fuzz(func(t *testing.T, pick uint8, snap []byte) {
		s := restoreSeeds[int(pick)%len(restoreSeeds)]
		buf, err := pktbuf.Restore(bytes.NewReader(snap), s.cfg)
		if err != nil {
			return
		}
		if err := driveRestored(buf, rand.New(rand.NewSource(1)), s.load, 1000); err != nil {
			t.Fatalf("%s: restored buffer: untyped error %v", s.name, err)
		}
	})
}
