package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cell"
)

// ffConfigs is the differential matrix the fast-forward equivalence is
// pinned over: both head MMAs, granularities 1..8, bounded and
// unbounded DRAM, plus the renaming write path (whose eligibility
// closure the quiescence probe must consult).
func ffConfigs() []Config {
	var cfgs []Config
	for _, m := range []MMAKind{ECQF, MDQF} {
		for _, bs := range []int{1, 2, 4, 8} {
			cfgs = append(cfgs,
				Config{Q: 8, B: 8, Bsmall: bs, Banks: 16, MMA: m},
				Config{Q: 8, B: 8, Bsmall: bs, Banks: 16, MMA: m, BankCapacityBlocks: 64},
			)
		}
	}
	cfgs = append(cfgs, Config{Q: 8, B: 8, Bsmall: 4, Banks: 16, Renaming: true, BankCapacityBlocks: 64})
	return cfgs
}

// normalizeFF zeroes the only counter dense ticking cannot accumulate,
// so fast-forwarded and dense runs compare bit-identically.
func normalizeFF(s Stats) Stats {
	s.FastForwardedSlots = 0
	return s
}

// phasedStimulus drives buf slot-by-slot with a seeded phase machine
// (busy / fill-only / drain-only / fully idle, idle spans long enough
// to outlast the request pipeline) and records the exact TickInput of
// every slot plus the delivery outcome. The recorded stimulus replays
// bit-identically through any equivalent advance of the same
// configuration.
type slotOutcome struct {
	ok       bool
	bypassed bool
	cell     cell.Cell
}

func phasedStimulus(t *testing.T, buf *Buffer, rng *rand.Rand, slots int) ([]TickInput, []slotOutcome) {
	t.Helper()
	ins := make([]TickInput, 0, slots)
	outs := make([]slotOutcome, 0, slots)
	queues := buf.Config().Q
	pipe := buf.Config().Lookahead + buf.Config().LatencySlots
	rrNext := 0
	for len(ins) < slots {
		kind := rng.Intn(4)
		length := 1 + rng.Intn(60)
		if kind == 3 {
			// Fully idle phase: long enough that quiescence is reached
			// and a fast-forwarding replay actually skips.
			length = pipe + 1 + rng.Intn(3*pipe+2*queues*buf.Config().Bsmall)
		}
		for s := 0; s < length && len(ins) < slots; s++ {
			in := TickInput{Arrival: cell.NoQueue, Request: cell.NoQueue}
			if (kind == 0 || kind == 1) && rng.Float64() < 0.8 {
				in.Arrival = cell.QueueID(rng.Intn(queues))
			}
			if kind == 0 || kind == 2 {
				// Round-robin drain against the live view, like the §3
				// adversary; the chosen queue is recorded so the replay
				// needs no view.
				for i := 0; i < queues; i++ {
					q := cell.QueueID((rrNext + i) % queues)
					if buf.Requestable(q) > 0 {
						in.Request = q
						rrNext = (int(q) + 1) % queues
						break
					}
				}
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
	}
	return ins, outs
}

// replayFastForward replays ins one slot at a time, jumping every
// idle run with FastForward as soon as the buffer accepts, and asserts
// outcome-for-outcome equality with want.
func replayFastForward(t *testing.T, buf *Buffer, ins []TickInput, want []slotOutcome) {
	t.Helper()
	idle := func(in TickInput) bool { return in.Arrival == cell.NoQueue && in.Request == cell.NoQueue }
	for i := 0; i < len(ins); i++ {
		if idle(ins[i]) {
			j := i + 1
			for j < len(ins) && idle(ins[j]) {
				j++
			}
			if buf.FastForward(uint64(j-i)) != 0 {
				i = j - 1
				continue
			}
		}
		out, err := buf.Tick(ins[i])
		if err != nil {
			t.Fatalf("slot %d: %v", i, err)
		}
		g := slotOutcome{}
		if out.Delivered != nil {
			g = slotOutcome{ok: true, bypassed: out.Bypassed, cell: *out.Delivered}
		}
		if g != want[i] {
			t.Fatalf("slot %d: replay %+v, reference %+v", i, g, want[i])
		}
	}
}

// TestFastForwardDifferential pins the fast-forward equivalence on a
// realistic workload: replaying a recorded phased workload while
// jumping every idle span the moment the buffer goes quiescent must be
// bit-identical to the slot-by-slot reference run — same deliveries
// in the same slots, same final statistics (skipped-slot counter
// aside) and same clock. (TestKernelDifferential pins the same for
// the batch loop, across batch boundaries.)
func TestFastForwardDifferential(t *testing.T) {
	for ci, cfg := range ffConfigs() {
		cfg := cfg
		name := fmt.Sprintf("%s/b=%d/cap=%d/ren=%v", cfg.MMA, cfg.Bsmall, cfg.BankCapacityBlocks, cfg.Renaming)
		t.Run(name, func(t *testing.T) {
			ref, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(int64(7331 + ci)))
			ins, want := phasedStimulus(t, ref, rng, 30000)

			jumped, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			replayFastForward(t, jumped, ins, want)
			if got, wantS := normalizeFF(jumped.Stats()), normalizeFF(ref.Stats()); got != wantS {
				t.Errorf("stats diverge:\njumped %+v\nref    %+v", got, wantS)
			}
			if jumped.Now() != ref.Now() {
				t.Errorf("clock diverges: jumped %d, ref %d", jumped.Now(), ref.Now())
			}
			if jumped.Stats().FastForwardedSlots == 0 {
				t.Error("replay never fast-forwarded: the differential exercised nothing")
			}
		})
	}
}

// TestFastForwardMatchesIdleTicks pins FastForward(n) ≡ n idle Ticks
// directly, including mid-pipeline starting phases: two identically
// driven buffers are brought to quiescence, offset into every phase of
// the b-slot MMA cycle, advanced (one by ticking, one by jumping), and
// then driven with live traffic again — stats, deliveries and clocks
// must stay identical throughout.
func TestFastForwardMatchesIdleTicks(t *testing.T) {
	idle := TickInput{Arrival: cell.NoQueue, Request: cell.NoQueue}
	for _, cfg := range ffConfigs() {
		cfg := cfg
		name := fmt.Sprintf("%s/b=%d/cap=%d/ren=%v", cfg.MMA, cfg.Bsmall, cfg.BankCapacityBlocks, cfg.Renaming)
		t.Run(name, func(t *testing.T) {
			for _, n := range []uint64{1, 2, 3, 7, 64, 1009} {
				for phase := 0; phase < cfg.Bsmall; phase++ {
					a, err := New(cfg)
					if err != nil {
						t.Fatal(err)
					}
					b, err := New(cfg)
					if err != nil {
						t.Fatal(err)
					}
					drive := func(in TickInput) {
						t.Helper()
						oa, ea := a.Tick(in)
						ob, eb := b.Tick(in)
						if (ea == nil) != (eb == nil) {
							t.Fatalf("error divergence: %v vs %v", ea, eb)
						}
						if ea != nil {
							t.Fatalf("tick: %v", ea)
						}
						switch {
						case (oa.Delivered == nil) != (ob.Delivered == nil):
							t.Fatalf("delivery divergence at slot %d", a.Now())
						case oa.Delivered != nil && (*oa.Delivered != *ob.Delivered || oa.Bypassed != ob.Bypassed):
							t.Fatalf("delivered cell divergence at slot %d", a.Now())
						}
					}
					// Load some traffic and request part of it back, then
					// let both buffers settle to quiescence.
					for i := 0; i < 4*cfg.Bsmall; i++ {
						drive(TickInput{Arrival: cell.QueueID(i % cfg.Q), Request: cell.NoQueue})
					}
					for q := 0; q < cfg.Q/2; q++ {
						drive(TickInput{Arrival: cell.NoQueue, Request: cell.QueueID(q)})
					}
					for i := 0; !a.Quiescent(); i++ {
						if i > 1<<16 {
							t.Fatal("buffer never went quiescent")
						}
						drive(idle)
					}
					if !b.Quiescent() {
						t.Fatal("identically driven buffers disagree on quiescence")
					}
					// Offset into the requested phase of the MMA cycle.
					for int(a.Now())%cfg.Bsmall != phase {
						drive(idle)
					}
					// Advance: a ticks, b jumps.
					for i := uint64(0); i < n; i++ {
						if _, err := a.Tick(idle); err != nil {
							t.Fatalf("idle tick: %v", err)
						}
					}
					if got := b.FastForward(n); got != n {
						t.Fatalf("FastForward(%d) skipped %d", n, got)
					}
					if a.Now() != b.Now() {
						t.Fatalf("clock divergence: %d vs %d", a.Now(), b.Now())
					}
					if ga, gb := a.Stats(), normalizeFF(b.Stats()); ga != gb {
						t.Fatalf("stats divergence after advance (n=%d phase=%d):\nticked %+v\njumped %+v", n, phase, ga, gb)
					}
					// Live traffic afterwards must behave identically.
					for i := 0; i < 6*cfg.Q*cfg.Bsmall; i++ {
						in := TickInput{Arrival: cell.QueueID(i % cfg.Q), Request: cell.NoQueue}
						if i%2 == 1 {
							in.Request = cell.QueueID((i / 2) % cfg.Q)
						}
						drive(in)
					}
					if ga, gb := a.Stats(), normalizeFF(b.Stats()); ga != gb {
						t.Fatalf("stats divergence after resume (n=%d phase=%d):\nticked %+v\njumped %+v", n, phase, ga, gb)
					}
				}
			}
		})
	}
}

// TestFastForwardRefusesBusyBuffer pins the guard: a buffer with any
// in-flight work refuses to jump.
func TestFastForwardRefusesBusyBuffer(t *testing.T) {
	buf, err := New(Config{Q: 4, B: 8, Bsmall: 4, Banks: 16})
	if err != nil {
		t.Fatal(err)
	}
	if !buf.Quiescent() {
		t.Fatal("fresh buffer must be quiescent")
	}
	if got := buf.FastForward(0); got != 0 {
		t.Errorf("FastForward(0) = %d", got)
	}
	if _, err := buf.Tick(TickInput{Arrival: 0, Request: cell.NoQueue}); err != nil {
		t.Fatal(err)
	}
	if _, err := buf.Tick(TickInput{Arrival: cell.NoQueue, Request: 0}); err != nil {
		t.Fatal(err)
	}
	if buf.Quiescent() {
		t.Fatal("buffer with an in-flight request must not be quiescent")
	}
	if got := buf.FastForward(100); got != 0 {
		t.Errorf("busy FastForward skipped %d slots", got)
	}
	if buf.Quiescent() {
		t.Error("a refused FastForward must leave the buffer busy")
	}
}

// TestQuiescenceStableUnderIdleTicks pins the absorbing property the
// fast path relies on: once quiescent, idle ticks change nothing but
// the clock (and the DSS empty-cycle count), and the buffer stays
// quiescent.
func TestQuiescenceStableUnderIdleTicks(t *testing.T) {
	for _, cfg := range ffConfigs() {
		buf, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		// Busy it, then settle.
		for i := 0; i < 64; i++ {
			in := TickInput{Arrival: cell.QueueID(i % cfg.Q), Request: cell.NoQueue}
			if i%3 == 2 {
				in.Request = cell.QueueID(rand.New(rand.NewSource(int64(i))).Intn(cfg.Q))
				if buf.Requestable(in.Request) == 0 {
					in.Request = cell.NoQueue
				}
			}
			if _, err := buf.Tick(in); err != nil {
				t.Fatal(err)
			}
		}
		idle := TickInput{Arrival: cell.NoQueue, Request: cell.NoQueue}
		for i := 0; !buf.Quiescent(); i++ {
			if i > 1<<16 {
				t.Fatal("never quiescent")
			}
			if _, err := buf.Tick(idle); err != nil {
				t.Fatal(err)
			}
		}
		ref := buf.Stats()
		ref.DSS.EmptyCycles = 0
		for i := 0; i < 4*cfg.Bsmall+3; i++ {
			if _, err := buf.Tick(idle); err != nil {
				t.Fatal(err)
			}
			if !buf.Quiescent() {
				t.Fatalf("quiescence lost after %d idle ticks (b=%d)", i+1, cfg.Bsmall)
			}
			got := buf.Stats()
			got.DSS.EmptyCycles = 0
			if got != ref {
				t.Fatalf("idle tick %d changed stats:\nbefore %+v\nafter  %+v", i+1, ref, got)
			}
		}
	}
}
