package dss

import (
	"testing"

	"repro/internal/cell"
	"repro/internal/dram"
)

// adversarialStream enqueues an alternating two-queue pattern whose
// consecutive requests collide on the same bank: queue A block k and
// queue B block k both map to the same group when A ≡ B (mod G), and
// their interleaved enqueue order forces head-of-line conflicts for a
// FIFO scheduler.
func runPolicy(t *testing.T, p Policy, cycles int) Stats {
	t.Helper()
	s := NewWithPolicy(16, p)
	// Two interleaved streams to banks {0,1}: requests to bank 0 twice
	// in a row, then bank 1 twice, etc. FIFO stalls whenever the head
	// repeats a just-issued bank; oldest-ready-first slips the other
	// stream in.
	banks := []dram.BankID{0, 0, 1, 1}
	const access = 4 // bank busy 4 slots = 2 cycles at 2 slots/cycle
	slot := cell.Slot(0)
	k := 0
	for c := 0; c < cycles; c++ {
		for s.CanEnqueue() {
			if err := s.Enqueue(Request{
				Queue: cell.PhysQueueID(k % 2), Dir: Read,
				Bank: banks[k%len(banks)], Enqueued: slot,
			}); err != nil {
				t.Fatal(err)
			}
			k++
		}
		s.Cycle(slot, 1, access)
		slot += 2
	}
	return s.Stats()
}

func TestFIFOBlockingThroughputCollapse(t *testing.T) {
	// The paper's motivation for the issue-queue mechanism: with
	// conflicting head-of-line requests, FIFO idles while work exists;
	// oldest-ready-first keeps every cycle busy.
	const cycles = 2000
	oo := runPolicy(t, OldestReadyFirst, cycles)
	fifo := runPolicy(t, FIFOBlocking, cycles)

	if oo.IdleCycles != 0 {
		t.Errorf("oldest-ready-first idled %d cycles on a reorderable stream", oo.IdleCycles)
	}
	if fifo.IdleCycles == 0 {
		t.Error("FIFO never stalled on the conflicting stream")
	}
	if fifo.Issued >= oo.Issued {
		t.Errorf("FIFO issued %d ≥ out-of-order %d", fifo.Issued, oo.Issued)
	}
	// FIFO never reorders, so nothing is ever skipped.
	if fifo.MaxSkips != 0 {
		t.Errorf("FIFO MaxSkips = %d", fifo.MaxSkips)
	}
	t.Logf("issued: oldest-ready=%d fifo=%d (%.0f%% throughput)",
		oo.Issued, fifo.Issued, 100*float64(fifo.Issued)/float64(oo.Issued))
}

func TestPolicyAccessors(t *testing.T) {
	if New(4).Policy() != OldestReadyFirst {
		t.Error("default policy wrong")
	}
	if NewWithPolicy(4, FIFOBlocking).Policy() != FIFOBlocking {
		t.Error("explicit policy lost")
	}
	if OldestReadyFirst.String() == "" || FIFOBlocking.String() == "" {
		t.Error("empty policy strings")
	}
}

// BenchmarkPolicy measures scheduler cycles per second for both
// disciplines on the conflicting stream (the scheduler ablation of
// the root ablation_test.go).
func BenchmarkPolicy(b *testing.B) {
	b.ReportAllocs()
	for _, p := range []Policy{OldestReadyFirst, FIFOBlocking} {
		b.Run(p.String(), func(b *testing.B) {
			s := NewWithPolicy(16, p)
			banks := []dram.BankID{0, 0, 1, 1}
			slot := cell.Slot(0)
			k := 0
			for i := 0; i < b.N; i++ {
				for s.CanEnqueue() {
					_ = s.Enqueue(Request{Bank: banks[k%4], Enqueued: slot})
					k++
				}
				s.Cycle(slot, 1, 4)
				slot += 2
			}
			b.ReportMetric(float64(s.Stats().Issued)/float64(b.N), "issues/cycle")
		})
	}
}
