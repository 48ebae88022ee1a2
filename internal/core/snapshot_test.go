package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/cell"
)

// TestSnapshotDifferential pins the crash-safety tentpole: interrupting
// a run at an arbitrary slot — any phase of the b-slot MMA cycle, with
// transfers in flight through the completion calendar and the Requests
// Register — by Snapshot+RestoreBuffer must be invisible. The restored
// buffer replays the remaining stimulus with identical deliveries,
// identical final statistics and an identical clock, across ECQF/MDQF
// × b × bounded/unbounded DRAM × renaming; and a snapshot of the
// restored buffer is byte-identical to the original snapshot.
func TestSnapshotDifferential(t *testing.T) {
	for ci, cfg := range ffConfigs() {
		cfg := cfg
		name := fmt.Sprintf("%s/b=%d/cap=%d/ren=%v", cfg.MMA, cfg.Bsmall, cfg.BankCapacityBlocks, cfg.Renaming)
		t.Run(name, func(t *testing.T) {
			ref, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(int64(70117 + ci)))
			ins, want := denseStimulus(t, ref, rng, 3000)

			// Cut at the start, the end, and one full MMA cycle of
			// consecutive mid-run slots so every phase of the b-slot
			// cycle is a snapshot point.
			cuts := []int{0, len(ins) / 2, len(ins)}
			for ph := 0; ph < cfg.Bsmall; ph++ {
				cuts = append(cuts, 1001+ph)
			}
			for _, cut := range cuts {
				live, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < cut; i++ {
					if _, err := live.Tick(ins[i]); err != nil {
						t.Fatalf("cut %d: live tick %d: %v", cut, i, err)
					}
				}
				var snap bytes.Buffer
				if err := live.Snapshot(&snap); err != nil {
					t.Fatalf("cut %d: snapshot: %v", cut, err)
				}
				restored, err := RestoreBuffer(bytes.NewReader(snap.Bytes()), cfg)
				if err != nil {
					t.Fatalf("cut %d: restore: %v", cut, err)
				}
				var again bytes.Buffer
				if err := restored.Snapshot(&again); err != nil {
					t.Fatalf("cut %d: re-snapshot: %v", cut, err)
				}
				if !bytes.Equal(snap.Bytes(), again.Bytes()) {
					t.Fatalf("cut %d: snapshot of restored buffer is not byte-identical", cut)
				}
				if got, wantS := restored.Stats(), live.Stats(); got != wantS {
					t.Fatalf("cut %d: stats diverge at restore:\nrestored %+v\nlive     %+v", cut, got, wantS)
				}
				for i := cut; i < len(ins); i++ {
					out, err := restored.Tick(ins[i])
					if err != nil {
						t.Fatalf("cut %d: restored tick %d: %v", cut, i, err)
					}
					got := slotOutcome{}
					if out.Delivered != nil {
						got = slotOutcome{ok: true, bypassed: out.Bypassed, cell: *out.Delivered}
					}
					if got != want[i] {
						t.Fatalf("cut %d: slot %d: restored %+v, reference %+v", cut, i, got, want[i])
					}
				}
				if got, wantS := restored.Stats(), ref.Stats(); got != wantS {
					t.Errorf("cut %d: final stats diverge:\nrestored %+v\nref      %+v", cut, got, wantS)
				}
				if restored.Now() != ref.Now() {
					t.Errorf("cut %d: clock diverges: restored %d, ref %d", cut, restored.Now(), ref.Now())
				}
			}
		})
	}
}

// TestSnapshotRestoreThenBatch pins that a restored buffer runs a
// workload with idle runs identically when it fast-forwards them: the
// slot cursors (completion-ring index, MMA cycle phase) are not
// serialised but re-derived from the clock, so the first jumps and
// ticks after a restore are the interesting ones.
func TestSnapshotRestoreThenBatch(t *testing.T) {
	cfg := Config{Q: 8, B: 8, Bsmall: 4, Banks: 16, Renaming: true, BankCapacityBlocks: 64}
	ref, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(51109))
	ins, want := phasedStimulus(t, ref, rng, 4000)

	cut := len(ins) / 2
	live, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < cut; i++ {
		if _, err := live.Tick(ins[i]); err != nil {
			t.Fatalf("live tick %d: %v", i, err)
		}
	}
	var snap bytes.Buffer
	if err := live.Snapshot(&snap); err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreBuffer(&snap, cfg)
	if err != nil {
		t.Fatal(err)
	}
	replayFastForward(t, restored, ins[cut:], want[cut:])
	if restored.Stats().FastForwardedSlots == 0 {
		t.Error("restored buffer never fast-forwarded")
	}
	if got, wantS := normalizeFF(restored.Stats()), ref.Stats(); got != wantS {
		t.Errorf("final stats diverge:\nrestored %+v\nref      %+v", got, wantS)
	}
}

// TestSnapshotVersionRejected pins the version gate: a future layout
// surfaces ErrSnapshotVersion, not a misparse.
func TestSnapshotVersionRejected(t *testing.T) {
	_, err := RestoreBuffer(strings.NewReader("!snapshot version=99\n"), Config{Q: 4, B: 8, Banks: 16})
	if !errors.Is(err, ErrSnapshotVersion) {
		t.Fatalf("RestoreBuffer = %v, want ErrSnapshotVersion", err)
	}
}

// TestSnapshotConfigMismatch pins that restoring into a differently
// dimensioned buffer is rejected outright.
func TestSnapshotConfigMismatch(t *testing.T) {
	buf, err := New(Config{Q: 4, B: 8, Banks: 16})
	if err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	if err := buf.Snapshot(&snap); err != nil {
		t.Fatal(err)
	}
	_, err = RestoreBuffer(&snap, Config{Q: 8, B: 8, Banks: 16})
	if !errors.Is(err, ErrSnapshot) {
		t.Fatalf("RestoreBuffer = %v, want ErrSnapshot", err)
	}
}

// TestSnapshotTruncated pins that a stream cut short fails loudly.
func TestSnapshotTruncated(t *testing.T) {
	cfg := Config{Q: 8, B: 8, Bsmall: 4, Banks: 16}
	buf, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	ins, _ := denseStimulus(t, buf, rng, 500)
	_ = ins
	var snap bytes.Buffer
	if err := buf.Snapshot(&snap); err != nil {
		t.Fatal(err)
	}
	cutoff := snap.Len() / 2
	if _, err := RestoreBuffer(bytes.NewReader(snap.Bytes()[:cutoff]), cfg); err == nil {
		t.Fatal("restore of a truncated snapshot succeeded")
	}
}

// denseStimulus drives buf slot-by-slot with a seeded full-load
// workload (an arrival almost every slot, a round-robin drain against
// the live view) and records every TickInput plus the delivery
// outcome. Unlike phasedStimulus it emits no fully idle slot.
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
			// Keep the stimulus dense: no all-idle slot.
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
