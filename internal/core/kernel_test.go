package core_test

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/facade"
	"repro/internal/testbuf"
	"repro/pktbuf"
)

// The suites in this file pin the one batch loop, pktbuf.Buffer's
// TickBatch, against per-slot Tick over this package's differential
// matrix. They live beside the engine (as an external test package,
// since pktbuf imports core) because they once held the fused kernel
// to tickSlot; the TestKernel* ids date from then. Every core.Config
// used here has B = 8, which the public Config reaches through the
// OC-768 line rate, so testbuf.New can build the exact configuration
// through pktbuf.New.

// withoutFF zeroes the only counter per-slot ticking cannot
// accumulate, so fast-forwarded and ticked runs compare exactly.
func withoutFF(s pktbuf.Stats) pktbuf.Stats {
	s.FastForwardedSlots = 0
	return s
}

// recordStimulus drives buf slot by slot with a seeded phase machine —
// busy, fill-only and drain-only phases, plus (with idleGaps) fully
// idle phases long enough to outlast the request pipeline — and
// records every Input with its Output. Requests drain round-robin
// against the live buffer, like the §3 adversary. Without idleGaps no
// slot is fully idle, so a replay exercises the ticked path alone.
func recordStimulus(t *testing.T, buf *pktbuf.Buffer, rng *rand.Rand, slots int, idleGaps bool) ([]pktbuf.Input, []pktbuf.Output) {
	t.Helper()
	ins := make([]pktbuf.Input, 0, slots)
	outs := make([]pktbuf.Output, 0, slots)
	cfg := facade.CoreOf(buf).Config()
	pipe := cfg.Lookahead + cfg.LatencySlots
	rrNext := 0
	for len(ins) < slots {
		kinds := 3
		if idleGaps {
			kinds = 4
		}
		kind := rng.Intn(kinds)
		length := 1 + rng.Intn(60)
		if kind == 3 {
			length = pipe + 1 + rng.Intn(3*pipe+2*cfg.Q*cfg.Bsmall)
		}
		for s := 0; s < length && len(ins) < slots; s++ {
			in := pktbuf.Input{Arrival: pktbuf.None, Request: pktbuf.None}
			if (kind == 0 || kind == 1) && rng.Float64() < 0.8 {
				in.Arrival = pktbuf.Queue(rng.Intn(cfg.Q))
			}
			if kind == 0 || kind == 2 {
				for i := 0; i < cfg.Q; i++ {
					q := pktbuf.Queue((rrNext + i) % cfg.Q)
					if buf.Requestable(q) > 0 {
						in.Request = q
						rrNext = (int(q) + 1) % cfg.Q
						break
					}
				}
			}
			if !idleGaps && in.Arrival == pktbuf.None && in.Request == pktbuf.None {
				in.Arrival = pktbuf.Queue(rng.Intn(cfg.Q))
			}
			out, err := buf.Tick(in)
			if err != nil {
				t.Fatalf("reference tick slot %d: %v", len(ins), err)
			}
			ins = append(ins, in)
			outs = append(outs, out)
		}
	}
	return ins, outs
}

// replayBatches replays ins through buf.TickBatch in chunks of
// batchLen and asserts outcome-for-outcome equality with want.
func replayBatches(t *testing.T, buf *pktbuf.Buffer, ins []pktbuf.Input, want []pktbuf.Output, batchLen int) {
	t.Helper()
	out := make([]pktbuf.Output, batchLen)
	for pos := 0; pos < len(ins); {
		n := min(batchLen, len(ins)-pos)
		m, err := buf.TickBatch(ins[pos:pos+n], out[:n])
		if err != nil {
			t.Fatalf("batch at slot %d: %v", pos+m-1, err)
		}
		for i := 0; i < m; i++ {
			if out[i] != want[pos+i] {
				t.Fatalf("slot %d: batch %+v, reference %+v", pos+i, out[i], want[pos+i])
			}
		}
		pos += m
	}
}

// TestKernelDifferential pins TickBatch ≡ per-slot Tick: replaying a
// recorded workload in batches must be bit-identical to the
// slot-at-a-time run — same outputs in the same slots, same final
// statistics (FastForwardedSlots aside), same clock — across the
// ECQF/MDQF × b × bounded/unbounded DRAM × renaming matrix and across
// batch lengths that do and do not divide the b-slot MMA cycle or the
// completion ring. The dense workload keeps every slot busy, so it
// pins the ticked path with no fast-forward; the sparse one has idle
// gaps that outlast the pipeline, so every batch length also skips
// idle runs.
func TestKernelDifferential(t *testing.T) {
	for ci, cfg := range core.FFConfigs() {
		cfg := cfg
		name := fmt.Sprintf("%s/b=%d/cap=%d/ren=%v", cfg.MMA, cfg.Bsmall, cfg.BankCapacityBlocks, cfg.Renaming)
		t.Run(name, func(t *testing.T) {
			for _, sparse := range []bool{false, true} {
				ref := testbuf.New(t, cfg)
				rng := rand.New(rand.NewSource(int64(94017 + ci)))
				ins, want := recordStimulus(t, ref, rng, 20000, sparse)
				for _, batchLen := range []int{1, 7, 256, 20000} {
					buf := testbuf.New(t, cfg)
					replayBatches(t, buf, ins, want, batchLen)
					got, wantS := buf.Stats(), ref.Stats()
					if ff := got.FastForwardedSlots; sparse == (ff == 0) {
						t.Errorf("sparse=%v batchLen %d: %d slots fast-forwarded", sparse, batchLen, ff)
					}
					if withoutFF(got) != wantS {
						t.Errorf("sparse=%v batchLen %d: stats diverge:\nbatch %+v\nref   %+v", sparse, batchLen, got, wantS)
					}
					if buf.Now() != ref.Now() {
						t.Errorf("sparse=%v batchLen %d: clock diverges: batch %d, ref %d", sparse, batchLen, buf.Now(), ref.Now())
					}
				}
			}
		})
	}
}

// TestKernelErrorParity pins TickBatch's error semantics against
// per-slot Tick: an invalid request mid-batch must surface the same
// error after the same number of slots, the offending slot must still
// complete, and the two buffers must remain bit-identical afterwards.
func TestKernelErrorParity(t *testing.T) {
	cfg := core.Config{Q: 8, B: 8, Bsmall: 4, Banks: 16}
	ref, buf := testbuf.New(t, cfg), testbuf.New(t, cfg)

	// A batch whose third slot requests an empty queue.
	ins := []pktbuf.Input{
		{Arrival: 0, Request: pktbuf.None},
		{Arrival: 1, Request: pktbuf.None},
		{Arrival: 2, Request: 7},
		{Arrival: 3, Request: pktbuf.None},
	}
	var refErr error
	refSlots := 0
	for _, in := range ins {
		refSlots++
		if _, refErr = ref.Tick(in); refErr != nil {
			break
		}
	}
	out := make([]pktbuf.Output, len(ins))
	n, err := buf.TickBatch(ins, out)
	if n != refSlots || !errors.Is(err, pktbuf.ErrBadRequest) || err.Error() != refErr.Error() {
		t.Fatalf("batch stopped after %d slots (err %v); reference after %d (err %v)", n, err, refSlots, refErr)
	}
	if got, want := buf.Stats(), ref.Stats(); got != want {
		t.Errorf("stats diverge after error:\nbatch %+v\nref   %+v", got, want)
	}
	if buf.Now() != ref.Now() {
		t.Errorf("clock diverges after error: batch %d, ref %d", buf.Now(), ref.Now())
	}

	// Both continue identically after the error.
	rest := []pktbuf.Input{{Arrival: 4, Request: 0}, {Arrival: 5, Request: 1}}
	for _, in := range rest {
		if _, err := ref.Tick(in); err != nil {
			t.Fatalf("reference resume: %v", err)
		}
	}
	if _, err := buf.TickBatch(rest, out[:len(rest)]); err != nil {
		t.Fatalf("batch resume: %v", err)
	}
	if got, want := buf.Stats(), ref.Stats(); got != want {
		t.Errorf("stats diverge after resume:\nbatch %+v\nref   %+v", got, want)
	}
}

// TestTickBatchBoundaries pins the TickBatch edge cases: zero-length
// and single-slot batches, a batch straddling a quiescent→busy
// transition (the idle prefix fast-forwards, the busy suffix is ticked
// slot by slot), and batches that end mid-renaming — all bit-identical
// to slot-at-a-time ticks.
func TestTickBatchBoundaries(t *testing.T) {
	t.Run("zero-length", func(t *testing.T) {
		buf := testbuf.New(t, core.Config{Q: 4, B: 8, Bsmall: 4, Banks: 16})
		if n, err := buf.TickBatch(nil, nil); n != 0 || err != nil {
			t.Fatalf("TickBatch(nil) = %d, %v", n, err)
		}
		if buf.Now() != 0 {
			t.Fatalf("zero-length batch moved the clock to %d", buf.Now())
		}
	})

	t.Run("length-1", func(t *testing.T) {
		cfg := core.Config{Q: 4, B: 8, Bsmall: 2, Banks: 16}
		ref, buf := testbuf.New(t, cfg), testbuf.New(t, cfg)
		out := make([]pktbuf.Output, 1)
		for i := 0; i < 4*cfg.Q*cfg.Bsmall; i++ {
			in := pktbuf.Input{Arrival: pktbuf.Queue(i % cfg.Q), Request: pktbuf.None}
			if i%2 == 1 {
				in.Request = pktbuf.Queue((i / 2) % cfg.Q)
			}
			wantOut, wantErr := ref.Tick(in)
			n, gotErr := buf.TickBatch([]pktbuf.Input{in}, out)
			if n != 1 || (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("slot %d: batch n=%d err=%v, reference err=%v", i, n, gotErr, wantErr)
			}
			if out[0] != wantOut {
				t.Fatalf("slot %d: batch %+v, reference %+v", i, out[0], wantOut)
			}
		}
		if got, want := buf.Stats(), ref.Stats(); got != want {
			t.Errorf("stats diverge:\nbatch %+v\nref   %+v", got, want)
		}
	})

	t.Run("quiescent-to-busy-straddle", func(t *testing.T) {
		cfg := core.Config{Q: 4, B: 8, Bsmall: 4, Banks: 16, Lookahead: 2, LatencySlots: 2}
		ref, buf := testbuf.New(t, cfg), testbuf.New(t, cfg)
		// One batch: idle span long past quiescence, then a busy tail.
		var ins []pktbuf.Input
		for i := 0; i < 64; i++ {
			ins = append(ins, pktbuf.Input{Arrival: pktbuf.None, Request: pktbuf.None})
		}
		for i := 0; i < 40; i++ {
			in := pktbuf.Input{Arrival: pktbuf.Queue(i % cfg.Q), Request: pktbuf.None}
			if i >= 8 {
				in.Request = pktbuf.Queue((i - 8) % cfg.Q)
			}
			ins = append(ins, in)
		}
		want := make([]pktbuf.Output, len(ins))
		for i, in := range ins {
			var err error
			if want[i], err = ref.Tick(in); err != nil {
				t.Fatalf("reference slot %d: %v", i, err)
			}
		}
		replayBatches(t, buf, ins, want, len(ins))
		if buf.Stats().FastForwardedSlots == 0 {
			t.Error("straddling batch never fast-forwarded its idle prefix")
		}
		if got, wantS := withoutFF(buf.Stats()), ref.Stats(); got != wantS {
			t.Errorf("stats diverge:\nbatch %+v\nref   %+v", got, wantS)
		}
		if buf.Now() != ref.Now() {
			t.Errorf("clock diverges: batch %d, ref %d", buf.Now(), ref.Now())
		}
	})

	t.Run("batch-ends-mid-renaming", func(t *testing.T) {
		// Renaming config under sustained load; batch boundaries are
		// deliberately coprime to the b-slot cycle so batches end with
		// renamed blocks and replenishments in flight.
		cfg := core.Config{Q: 8, B: 8, Bsmall: 4, Banks: 16, Renaming: true, BankCapacityBlocks: 64}
		ref := testbuf.New(t, cfg)
		ins, want := recordStimulus(t, ref, rand.New(rand.NewSource(424242)), 5000, false)
		for _, batchLen := range []int{3, 5, 7, 11, 13} {
			buf := testbuf.New(t, cfg)
			replayBatches(t, buf, ins, want, batchLen)
			if got, wantS := buf.Stats(), ref.Stats(); got != wantS {
				t.Errorf("batchLen %d: stats diverge:\nbatch %+v\nref   %+v", batchLen, got, wantS)
			}
		}
	})
}
