package pktbuf

import (
	"errors"
	"runtime"
	"testing"

	"repro/internal/core"
)

// The tests in this file gate Buffer.TickBatch — the one batch loop —
// at zero allocations and fuzz it against per-slot Tick. They build
// buffers straight from a core.Config so they can name granularities,
// DRAM bounds and pipeline lengths the public Config derives. The
// differential suites over the full config matrix (TestKernel*,
// TestTickBatchBoundaries) live in internal/core's external test
// package, beside the engine's other differential suites.

// fromCore wraps a buffer built from a core configuration in the
// façade.
func fromCore(t testing.TB, cfg core.Config) *Buffer {
	t.Helper()
	inner, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &Buffer{inner: inner}
}

// withoutFF zeroes the only counter per-slot ticking cannot
// accumulate, so fast-forwarded and ticked runs compare exactly.
func withoutFF(s Stats) Stats {
	s.FastForwardedSlots = 0
	return s
}

// mallocs returns the heap allocations one call of f performs
// (testing.AllocsPerRun always makes an unmeasured warm-up call first).
func mallocs(f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestTickBatchZeroAlloc gates TickBatch at zero allocations per call,
// from the very first call: the loop keeps no scratch of its own. Each
// case is a deterministic period that returns the buffer to empty
// quiescence, so the engine's own structures (tail deques,
// completion-ring buckets) are warmed by ticking periods slot by slot
// first; then the first TickBatch call and every later one must
// allocate nothing. The dense case ends in idle gaps long enough to
// fast-forward; the sparse case is mostly idle runs, one cell per
// queue per burst.
func TestTickBatchZeroAlloc(t *testing.T) {
	const q, lag, n = 16, 32, 2048
	cfg := core.Config{Q: q, B: 32, Bsmall: 4, Banks: 64}
	// Idle spans must outlast the request pipeline (lookahead plus
	// latency register — ~400 slots here) or nothing goes quiescent
	// mid-batch.
	dense := make([]Input, n)
	sparse := make([]Input, n)
	for i := range dense {
		in := Input{Arrival: None, Request: None}
		switch {
		case i < 512: // full load, requests lagging arrivals by lag slots
			in.Arrival = Queue(i % q)
			if i >= lag {
				in.Request = Queue((i - lag) % q)
			}
		case i < 1536: // idle gap: the batch fast-forwards here
		case i < 1536+lag: // drain the backlog the lag left behind
			in.Request = Queue((i - 1536) % q)
		default: // trailing idle: back to empty quiescence
		}
		dense[i] = in
		sp := Input{Arrival: None, Request: None}
		if i < 1024 && i%64 == 0 { // one arrival, requested 8 slots later
			sp.Arrival = Queue(i / 64)
		} else if i < 1024 && i%64 == 8 {
			sp.Request = Queue(i / 64)
		}
		sparse[i] = sp
	}
	for _, tc := range []struct {
		name string
		ins  []Input
	}{{"dense", dense}, {"sparse", sparse}} {
		t.Run(tc.name, func(t *testing.T) {
			buf := fromCore(t, cfg)
			for period := 0; period < 24; period++ {
				for i, in := range tc.ins {
					if _, err := buf.Tick(in); err != nil {
						t.Fatalf("warm-up period %d slot %d: %v", period, i, err)
					}
				}
			}
			outs := make([]Output, n)
			run := func() {
				if m, err := buf.TickBatch(tc.ins, outs); err != nil || m != n {
					t.Fatalf("batch: %d slots, %v", m, err)
				}
			}
			if allocs := mallocs(run); allocs != 0 {
				t.Errorf("first TickBatch call allocates %d times, want 0", allocs)
			}
			if allocs := testing.AllocsPerRun(16, run); allocs != 0 {
				t.Errorf("TickBatch allocates %.1f times per call, want 0", allocs)
			}
			if buf.Stats().FastForwardedSlots == 0 {
				t.Error("batch never fast-forwarded an idle run")
			}
			if !buf.Stats().Clean() {
				t.Errorf("run not clean: %+v", buf.Stats())
			}
		})
	}
}

// fuzzConfigs are short-pipeline configurations, so that idle runs of
// a few dozen slots reach quiescence and fast-forward.
var fuzzConfigs = []core.Config{
	{Q: 4, B: 8, Bsmall: 1, Banks: 16, Lookahead: 2, LatencySlots: 2},
	{Q: 4, B: 8, Bsmall: 4, Banks: 16, Lookahead: 2, LatencySlots: 2, MMA: core.MDQF},
	{Q: 4, B: 8, Bsmall: 4, Banks: 16, Lookahead: 3, LatencySlots: 1, BankCapacityBlocks: 2},
	{Q: 4, B: 8, Bsmall: 2, Banks: 16, Renaming: true, BankCapacityBlocks: 8},
}

// FuzzTickBatchMatchesTick feeds short arbitrary stimulus to TickBatch
// in arbitrary chunk sizes and to per-slot Tick, and requires the same
// outputs, the same erroring slots with the same errors, the same
// Stats (FastForwardedSlots aside) and the same clock. Each stimulus
// byte is one slot: bits 0-2 pick the arrival and bits 3-5 the
// request (0-3 a queue, 4 the out-of-range queue Q, 5-7 None), so
// invalid arrivals and requests for empty or unknown queues occur;
// when bits 6-7 are both set the byte is instead an idle run of
// 1+4·(bits 0-5) slots. Chunk sizes cycle through 1+chunks[i].
// Stimulus past 512 bytes is ignored, keeping every input short.
func FuzzTickBatchMatchesTick(f *testing.F) {
	f.Add(uint8(0), []byte{0o70, 0o71, 0o72, 0o07, 0o17, 0o27, 0xff, 0o01}, []byte{3})
	f.Add(uint8(1), []byte{0o00, 0o11, 0o22, 0o33, 0xc8, 0o04, 0o40, 0xff, 0o70}, []byte{0, 6, 255})
	f.Add(uint8(2), []byte{0o70, 0o70, 0o70, 0o70, 0o70, 0o70, 0o70, 0o70, 0o70, 0o07, 0xd0}, []byte{})
	f.Add(uint8(3), []byte{0o50, 0o61, 0o02, 0o13, 0xc1, 0o00, 0o11, 0xe0, 0o22}, []byte{1, 2})
	f.Fuzz(func(t *testing.T, sel uint8, stim, chunks []byte) {
		queue := func(v byte) Queue {
			if v > 4 {
				return None
			}
			return Queue(v)
		}
		var ins []Input
		for _, c := range stim[:min(len(stim), 512)] {
			if c&0xc0 == 0xc0 {
				for k := 0; k < 1+4*int(c&0x3f); k++ {
					ins = append(ins, Input{Arrival: None, Request: None})
				}
				continue
			}
			ins = append(ins, Input{Arrival: queue(c & 7), Request: queue(c >> 3 & 7)})
		}
		cfg := fuzzConfigs[int(sel)%len(fuzzConfigs)]
		ref, buf := fromCore(t, cfg), fromCore(t, cfg)

		want := make([]Output, len(ins))
		wantErr := make([]error, len(ins))
		for i, in := range ins {
			want[i], wantErr[i] = ref.Tick(in)
		}

		out := make([]Output, len(ins))
		for pos, c := 0, 0; pos < len(ins); c++ {
			n := len(ins) - pos
			if len(chunks) > 0 {
				n = min(n, 1+int(chunks[c%len(chunks)]))
			}
			m, err := buf.TickBatch(ins[pos:pos+n], out[:n])
			if m < 1 || m > n || (err == nil && m != n) {
				t.Fatalf("TickBatch of %d slots at %d returned %d, %v", n, pos, m, err)
			}
			for i := 0; i < m; i++ {
				s := pos + i
				if out[i] != want[s] {
					t.Fatalf("slot %d: batch %+v, reference %+v", s, out[i], want[s])
				}
				var gotErr error
				if i == m-1 {
					gotErr = err
				}
				if (gotErr == nil) != (wantErr[s] == nil) ||
					gotErr != nil && gotErr.Error() != wantErr[s].Error() {
					t.Fatalf("slot %d: batch error %v, reference %v", s, gotErr, wantErr[s])
				}
				for _, sentinel := range []error{ErrBadRequest, ErrUnknownQueue, ErrBufferFull} {
					if errors.Is(gotErr, sentinel) != errors.Is(wantErr[s], sentinel) {
						t.Fatalf("slot %d: batch error %v, reference %v", s, gotErr, wantErr[s])
					}
				}
			}
			pos += m
		}
		if got, wantS := withoutFF(buf.Stats()), ref.Stats(); got != wantS {
			t.Fatalf("stats diverge:\nbatch %+v\nref   %+v", got, wantS)
		}
		if buf.Now() != ref.Now() {
			t.Fatalf("clock diverges: batch %d, ref %d", buf.Now(), ref.Now())
		}
	})
}
