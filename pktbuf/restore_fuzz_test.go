package pktbuf_test

import (
	"bytes"
	"errors"
	"math/rand"
	"strconv"
	"strings"
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
	burst int     // arrivals come in runs of 1…burst cells to one queue (0: one)
	slots int
}{
	{"dense-ecqf", pktbuf.Config{Queues: 8, LineRate: pktbuf.OC768, Granularity: 4, Banks: 16}, 0.95, 0, 1500},
	{"renaming", pktbuf.Config{Queues: 8, LineRate: pktbuf.OC768, Granularity: 4, Banks: 16,
		Renaming: true, BankCapacityBlocks: 64}, 0.95, 0, 1500},
	{"list-sram", pktbuf.Config{Queues: 8, LineRate: pktbuf.OC768, Granularity: 4, Banks: 16,
		Organization: pktbuf.UnifiedLinkedList}, 0.95, 0, 1500},
	{"sparse-bypass", pktbuf.Config{Queues: 8, LineRate: pktbuf.OC768, Granularity: 4, Banks: 16,
		Lookahead: 4, LatencySlots: 12}, 0.05, 0, 3000},
	// Router-shaped: packets arrive as bursts of cells to one queue and
	// requests catch up with them, so stagings fall between promises
	// and a tail queue holds several promised runs at once.
	{"bursty-runs", pktbuf.Config{Queues: 8, LineRate: pktbuf.OC768, Granularity: 4, Banks: 16,
		Lookahead: 4, LatencySlots: 12}, 0.8, 8, 1500},
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

// driveRestored ticks buf for n slots of seeded traffic at load — with
// burst > 0, arrivals in runs of 1…burst cells to one queue and
// requests to that queue while it has cells to request — half slot
// by slot and half through TickBatch (whose idle runs probe quiescence
// and fast-forward), and returns the first error that wraps none of
// engineErrors.
func driveRestored(buf *pktbuf.Buffer, rng *rand.Rand, load float64, burst, n int) error {
	q := buf.Config().Queues
	cur, left := pktbuf.None, 0
	next := func() pktbuf.Input {
		in := pktbuf.Input{Arrival: pktbuf.None, Request: pktbuf.None}
		if rng.Float64() < load {
			switch {
			case burst == 0:
				in.Arrival = pktbuf.Queue(rng.Intn(q))
			case left == 0:
				cur, left = pktbuf.Queue(rng.Intn(q)), rng.Intn(burst)
				in.Arrival = cur
			default:
				in.Arrival = cur
				left--
			}
		}
		r := pktbuf.Queue(rng.Intn(q))
		if burst > 0 && cur != pktbuf.None && buf.Requestable(cur) > 0 {
			r = cur // the arbiter serves the queue the burst fills
		}
		if rng.Float64() < load && buf.Requestable(r) > 0 {
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
		rng := rand.New(rand.NewSource(int64(i)))
		if err := driveRestored(buf, rng, s.load, s.burst, s.slots); err != nil {
			f.Fatalf("%s: warming: %v", s.name, err)
		}
		var snap bytes.Buffer
		for step := 0; ; step++ {
			snap.Reset()
			if err := buf.Snapshot(&snap); err != nil {
				f.Fatal(err)
			}
			// A bursty seed runs on, 10 slots at a time, until one tail
			// queue holds two promised runs (a few percent of slots).
			if s.burst == 0 || maxTailRuns(snap.Bytes()) >= 2 {
				break
			}
			if step == 1000 {
				f.Fatalf("%s: no tail queue held two promised runs", s.name)
			}
			if err := driveRestored(buf, rng, s.load, s.burst, 10); err != nil {
				f.Fatalf("%s: warming: %v", s.name, err)
			}
		}
		f.Add(uint8(i), snap.Bytes())
	}
	f.Fuzz(func(t *testing.T, pick uint8, snap []byte) {
		s := restoreSeeds[int(pick)%len(restoreSeeds)]
		buf, err := pktbuf.Restore(bytes.NewReader(snap), s.cfg)
		if err != nil {
			return
		}
		if err := driveRestored(buf, rand.New(rand.NewSource(1)), s.load, s.burst, 1000); err != nil {
			t.Fatalf("%s: restored buffer: untyped error %v", s.name, err)
		}
	})
}

// maxTailRuns returns the most promised runs — maximal stretches of
// consecutive sequence numbers among a tail queue's promised cells —
// that one tail queue of a snapshot holds.
func maxTailRuns(snap []byte) int {
	best, runs, promised, row := 0, 0, 0, 0
	var last int64
	for _, line := range strings.Split(string(snap), "\n") {
		if f := strings.Fields(line); strings.HasPrefix(line, "!") {
			runs, promised, row = 0, 0, 0
			if f[0] == "!tail" {
				for _, kv := range f[1:] {
					if v, ok := strings.CutPrefix(kv, "promised="); ok {
						promised, _ = strconv.Atoi(v)
					}
				}
			}
		} else if row < promised && len(f) == 2 {
			seq, _ := strconv.ParseInt(f[1], 10, 64)
			if row == 0 || seq != last+1 {
				runs++
			}
			last, row = seq, row+1
			best = max(best, runs)
		}
	}
	return best
}
