package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cell"
)

// denseStimulus drives buf slot-by-slot with a seeded full-load
// workload (an arrival almost every slot, a round-robin drain against
// the live view) and records every TickInput plus the delivery
// outcome. Unlike phasedStimulus it emits no fully idle slot, so a
// replay exercises TickBatch's slot loop with no fast-forward
// interference.
func denseStimulus(t *testing.T, buf *Buffer, rng *rand.Rand, slots int) ([]TickInput, []slotOutcome) {
	t.Helper()
	ins := make([]TickInput, 0, slots)
	outs := make([]slotOutcome, 0, slots)
	queues := buf.Config().Q
	rrNext := 0
	for len(ins) < slots {
		in := TickInput{Arrival: cell.NoQueue, Request: cell.NoQueue}
		if rng.Float64() < 0.9 {
			in.Arrival = cell.QueueID(rng.Intn(queues))
		}
		if rng.Float64() < 0.85 {
			for i := 0; i < queues; i++ {
				q := cell.QueueID((rrNext + i) % queues)
				if buf.Requestable(q) > 0 {
					in.Request = q
					rrNext = (int(q) + 1) % queues
					break
				}
			}
		}
		if in.Arrival == cell.NoQueue && in.Request == cell.NoQueue {
			// Keep the stimulus dense: an all-idle slot would open a
			// fast-forward window and this suite pins the slot loop alone.
			in.Arrival = cell.QueueID(rng.Intn(queues))
		}
		out, err := buf.Tick(in)
		if err != nil {
			t.Fatalf("reference tick slot %d: %v", len(ins), err)
		}
		oc := slotOutcome{}
		if out.Delivered != nil {
			oc = slotOutcome{ok: true, bypassed: out.Bypassed, cell: *out.Delivered}
		}
		ins = append(ins, in)
		outs = append(outs, oc)
	}
	return ins, outs
}

// replayBatches replays ins through buf.TickBatch in chunks of
// batchLen and asserts outcome-for-outcome equality with want.
func replayBatches(t *testing.T, buf *Buffer, ins []TickInput, want []slotOutcome, batchLen int) {
	t.Helper()
	out := make([]TickOutput, batchLen)
	pos := 0
	for pos < len(ins) {
		n := batchLen
		if left := len(ins) - pos; left < n {
			n = left
		}
		m, err := buf.TickBatch(ins[pos:pos+n], out[:n])
		if err != nil {
			t.Fatalf("fused batch at slot %d: %v", pos+m-1, err)
		}
		for i := 0; i < m; i++ {
			w := want[pos+i]
			g := slotOutcome{}
			if out[i].Delivered != nil {
				g = slotOutcome{ok: true, bypassed: out[i].Bypassed, cell: *out[i].Delivered}
			}
			if g != w {
				t.Fatalf("slot %d: fused %+v, reference %+v", pos+i, g, w)
			}
		}
		pos += m
	}
}

// TestKernelDifferential pins TickBatch ≡ per-slot Tick on dense
// spans (the name dates from the fused kernel this suite once held to
// tickSlot; both now run tickSlot, so what it pins is the batch
// wrapper): replaying a recorded full-load workload in batches must be
// bit-identical to the slot-at-a-time run — same deliveries in the
// same slots, each read back from the batch-local scratch after the
// whole batch has run, same final statistics, same clock — across
// ECQF/MDQF × b × bounded/unbounded DRAM × renaming and across batch
// lengths that do and do not divide the b-slot MMA cycle or the
// completion ring.
func TestKernelDifferential(t *testing.T) {
	for ci, cfg := range ffConfigs() {
		cfg := cfg
		name := fmt.Sprintf("%s/b=%d/cap=%d/ren=%v", cfg.MMA, cfg.Bsmall, cfg.BankCapacityBlocks, cfg.Renaming)
		t.Run(name, func(t *testing.T) {
			ref, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(int64(94017 + ci)))
			ins, want := denseStimulus(t, ref, rng, 20000)

			for _, batchLen := range []int{1, 7, 256, 20000} {
				fused, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				replayBatches(t, fused, ins, want, batchLen)
				if got, wantS := fused.Stats(), ref.Stats(); got != wantS {
					t.Errorf("batchLen %d: stats diverge:\nfused %+v\nref   %+v", batchLen, got, wantS)
				}
				if fused.Now() != ref.Now() {
					t.Errorf("batchLen %d: clock diverges: fused %d, ref %d", batchLen, fused.Now(), ref.Now())
				}
			}
		})
	}
}

// TestKernelErrorParity pins TickBatch's error semantics against
// per-slot Tick: an invalid request mid-batch must surface the same
// sentinel after the same number of slots, the offending slot must
// still complete, and the two buffers must remain bit-identical
// afterwards.
func TestKernelErrorParity(t *testing.T) {
	cfg := Config{Q: 8, B: 8, Bsmall: 4, Banks: 16}
	mk := func() *Buffer {
		buf, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return buf
	}
	ref, fused := mk(), mk()

	// A batch whose third slot requests an empty queue.
	ins := []TickInput{
		{Arrival: 0, Request: cell.NoQueue},
		{Arrival: 1, Request: cell.NoQueue},
		{Arrival: 2, Request: 7},
		{Arrival: 3, Request: cell.NoQueue},
	}
	var refErr error
	refSlots := 0
	for _, in := range ins {
		if _, err := ref.Tick(in); err != nil {
			refErr = err
			refSlots++
			break
		}
		refSlots++
	}
	out := make([]TickOutput, len(ins))
	n, err := fused.TickBatch(ins, out)
	if (err == nil) != (refErr == nil) || n != refSlots {
		t.Fatalf("fused stopped after %d slots (err %v); reference after %d (err %v)", n, err, refSlots, refErr)
	}
	if got, want := fused.Stats(), ref.Stats(); got != want {
		t.Errorf("stats diverge after error:\nfused %+v\nref   %+v", got, want)
	}
	if fused.Now() != ref.Now() {
		t.Errorf("clock diverges after error: fused %d, ref %d", fused.Now(), ref.Now())
	}

	// Both continue identically after the error.
	rest := []TickInput{{Arrival: 4, Request: 0}, {Arrival: 5, Request: 1}}
	for _, in := range rest {
		if _, err := ref.Tick(in); err != nil {
			t.Fatalf("reference resume: %v", err)
		}
	}
	if _, err := fused.TickBatch(rest, out[:len(rest)]); err != nil {
		t.Fatalf("fused resume: %v", err)
	}
	if got, want := fused.Stats(), ref.Stats(); got != want {
		t.Errorf("stats diverge after resume:\nfused %+v\nref   %+v", got, want)
	}
}

// TestTickBatchBoundaries pins the TickBatch edge cases: zero-length
// and single-slot batches, a batch straddling a quiescent→busy
// transition (the idle prefix fast-forwards, the busy suffix is ticked
// slot by slot), and batches that end mid-renaming — all bit-identical
// to slot-at-a-time ticks.
func TestTickBatchBoundaries(t *testing.T) {
	t.Run("zero-length", func(t *testing.T) {
		buf, err := New(Config{Q: 4, B: 8, Bsmall: 4, Banks: 16})
		if err != nil {
			t.Fatal(err)
		}
		n, err := buf.TickBatch(nil, nil)
		if n != 0 || err != nil {
			t.Fatalf("TickBatch(nil) = %d, %v", n, err)
		}
		if buf.Now() != 0 {
			t.Fatalf("zero-length batch moved the clock to %d", buf.Now())
		}
	})

	t.Run("length-1", func(t *testing.T) {
		cfg := Config{Q: 4, B: 8, Bsmall: 2, Banks: 16}
		ref, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		fused, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]TickOutput, 1)
		for i := 0; i < 4*cfg.Q*cfg.Bsmall; i++ {
			in := TickInput{Arrival: cell.QueueID(i % cfg.Q), Request: cell.NoQueue}
			if i%2 == 1 {
				in.Request = cell.QueueID((i / 2) % cfg.Q)
			}
			wantOut, wantErr := ref.Tick(in)
			n, gotErr := fused.TickBatch([]TickInput{in}, out)
			if n != 1 || (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("slot %d: batch n=%d err=%v, reference err=%v", i, n, gotErr, wantErr)
			}
			switch {
			case (wantOut.Delivered == nil) != (out[0].Delivered == nil):
				t.Fatalf("slot %d: delivery presence diverges", i)
			case wantOut.Delivered != nil && (*wantOut.Delivered != *out[0].Delivered || wantOut.Bypassed != out[0].Bypassed):
				t.Fatalf("slot %d: delivered cell diverges", i)
			}
		}
		if got, want := fused.Stats(), ref.Stats(); got != want {
			t.Errorf("stats diverge:\nfused %+v\nref   %+v", got, want)
		}
	})

	t.Run("quiescent-to-busy-straddle", func(t *testing.T) {
		cfg := Config{Q: 4, B: 8, Bsmall: 4, Banks: 16, Lookahead: 2, LatencySlots: 2}
		ref, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		fused, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		// One batch: idle span long past quiescence, then a busy tail.
		var ins []TickInput
		for i := 0; i < 64; i++ {
			ins = append(ins, TickInput{Arrival: cell.NoQueue, Request: cell.NoQueue})
		}
		for i := 0; i < 40; i++ {
			in := TickInput{Arrival: cell.QueueID(i % cfg.Q), Request: cell.NoQueue}
			if i >= 8 {
				in.Request = cell.QueueID((i - 8) % cfg.Q)
			}
			ins = append(ins, in)
		}
		want := make([]slotOutcome, len(ins))
		for i, in := range ins {
			out, err := ref.Tick(in)
			if err != nil {
				t.Fatalf("reference slot %d: %v", i, err)
			}
			if out.Delivered != nil {
				want[i] = slotOutcome{ok: true, bypassed: out.Bypassed, cell: *out.Delivered}
			}
		}
		replayBatches(t, fused, ins, want, len(ins))
		if fused.Stats().FastForwardedSlots == 0 {
			t.Error("straddling batch never fast-forwarded its idle prefix")
		}
		if got, wantS := normalizeFF(fused.Stats()), normalizeFF(ref.Stats()); got != wantS {
			t.Errorf("stats diverge:\nfused %+v\nref   %+v", got, wantS)
		}
		if fused.Now() != ref.Now() {
			t.Errorf("clock diverges: fused %d, ref %d", fused.Now(), ref.Now())
		}
	})

	t.Run("batch-ends-mid-renaming", func(t *testing.T) {
		// Renaming config under sustained load; batch boundaries are
		// deliberately coprime to the b-slot cycle so batches end with
		// renamed blocks and replenishments in flight.
		cfg := Config{Q: 8, B: 8, Bsmall: 4, Banks: 16, Renaming: true, BankCapacityBlocks: 64}
		ref, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(424242))
		ins, want := denseStimulus(t, ref, rng, 5000)
		for _, batchLen := range []int{3, 5, 7, 11, 13} {
			fused, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			replayBatches(t, fused, ins, want, batchLen)
			if got, wantS := fused.Stats(), ref.Stats(); got != wantS {
				t.Errorf("batchLen %d: stats diverge:\nfused %+v\nref   %+v", batchLen, got, wantS)
			}
		}
	})
}
