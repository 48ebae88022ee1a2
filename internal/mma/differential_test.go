package mma

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bitset"
	"repro/internal/cell"
)

// This file pins the tentpole guarantee of the bitmap indices: the
// indexed Select implementations are bit-identical — same queue, same
// tie-breaks, same idle decisions — to the retained SelectScan linear
// references, across seeded random workloads that include negative
// ledgers, overflow-bucket occupancies, arena growth and all three
// eligibility modes (none, closure, bitset).

// eligModel drives the three eligibility modes from one queue→bool
// table so the closure and bitset views always agree.
type eligModel struct {
	mode    int // 0: all eligible, 1: closure, 2: bitset
	allowed []bool
	bits    *bitset.Set
}

func newEligModel(queues int) *eligModel {
	return &eligModel{allowed: make([]bool, queues), bits: bitset.New(queues)}
}

// reroll randomizes the mode and the allowed set.
func (e *eligModel) reroll(rng *rand.Rand) {
	e.mode = rng.Intn(3)
	for q := range e.allowed {
		ok := rng.Intn(4) != 0 // 75% eligible
		e.allowed[q] = ok
		if ok {
			e.bits.Set(q)
		} else {
			e.bits.Clear(q)
		}
	}
}

func (e *eligModel) physClosure() func(cell.PhysQueueID) bool {
	if e.mode != 1 {
		return nil
	}
	return func(q cell.PhysQueueID) bool { return e.allowed[q] }
}

func (e *eligModel) logClosure() func(cell.QueueID) bool {
	if e.mode != 1 {
		return nil
	}
	return func(q cell.QueueID) bool { return e.allowed[q] }
}

func (e *eligModel) headBits() *bitset.Set {
	if e.mode != 2 {
		return nil
	}
	return e.bits
}

func TestDifferentialECQF(t *testing.T) {
	cases := []struct {
		q, b, latency int
		load          float64
	}{
		{4, 1, 9, 0.9},
		{16, 2, 17, 0.8},
		{64, 4, 33, 0.95},
		{128, 3, 5, 0.5},
		{256, 8, 65, 0.99},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("Q=%d_b=%d", tc.q, tc.b), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(1000*tc.q + tc.b)))
			pipe := tc.q*(tc.b-1) + 1 + tc.latency
			look, err := NewLookahead(pipe)
			if err != nil {
				t.Fatal(err)
			}
			e, err := NewECQF(look, tc.b, tc.q)
			if err != nil {
				t.Fatal(err)
			}
			elig := newEligModel(tc.q)
			elig.reroll(rng)
			const slots = 120000
			for slot := 0; slot < slots; slot++ {
				in := cell.NoPhysQueue
				if rng.Float64() < tc.load {
					in = cell.PhysQueueID(rng.Intn(tc.q))
				}
				look.Shift(in)
				if slot%tc.b == tc.b-1 {
					if slot%137 == 0 {
						elig.reroll(rng)
					}
					e.SetEligibility(elig.headBits())
					cl := elig.physClosure()
					wantQ, wantOK := e.SelectScan(cl)
					gotQ, gotOK := e.Select(cl)
					if gotQ != wantQ || gotOK != wantOK {
						t.Fatalf("slot %d (elig mode %d): Select = (%d,%v), SelectScan = (%d,%v)",
							slot, elig.mode, gotQ, gotOK, wantQ, wantOK)
					}
					if gotOK {
						e.OnReplenish(gotQ)
					}
				}
			}
		})
	}
}

// TestDifferentialECQFArenaGrowth shifts queues beyond the constructed
// name space mid-run, forcing the geometric arena growth path while
// the differential gate stays on.
func TestDifferentialECQFArenaGrowth(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	look, _ := NewLookahead(97)
	e, _ := NewECQF(look, 4, 2) // deliberately undersized
	for slot := 0; slot < 30000; slot++ {
		in := cell.NoPhysQueue
		if rng.Float64() < 0.9 {
			in = cell.PhysQueueID(rng.Intn(1 + slot/100)) // widening id range
		}
		look.Shift(in)
		if slot%4 == 3 {
			wantQ, wantOK := e.SelectScan(nil)
			gotQ, gotOK := e.Select(nil)
			if gotQ != wantQ || gotOK != wantOK {
				t.Fatalf("slot %d: Select = (%d,%v), SelectScan = (%d,%v)", slot, gotQ, gotOK, wantQ, wantOK)
			}
			if gotOK {
				e.OnReplenish(gotQ)
			}
		}
	}
}

func TestDifferentialMDQF(t *testing.T) {
	cases := []struct {
		q, b      int
		replenish float64 // probability the selected queue is actually credited
	}{
		{4, 1, 1.0},
		{16, 2, 0.9},
		{64, 4, 0.7},
		{512, 8, 1.0},
		// replenish 0.05 starves the ledger so deficits blow far past
		// the overflow boundary (exact-scan bucket).
		{8, 2, 0.05},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("Q=%d_b=%d", tc.q, tc.b), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(2000*tc.q + tc.b)))
			m, err := NewMDQF(tc.b, tc.q)
			if err != nil {
				t.Fatal(err)
			}
			elig := newEligModel(tc.q)
			elig.reroll(rng)
			const slots = 120000
			for slot := 0; slot < slots; slot++ {
				if rng.Float64() < 0.8 {
					m.OnRequestEnter(cell.PhysQueueID(rng.Intn(tc.q)))
				}
				if slot%tc.b == tc.b-1 {
					if slot%211 == 0 {
						elig.reroll(rng)
					}
					m.SetEligibility(elig.headBits())
					cl := elig.physClosure()
					wantQ, wantOK := m.SelectScan(cl)
					gotQ, gotOK := m.Select(cl)
					if gotQ != wantQ || gotOK != wantOK {
						t.Fatalf("slot %d (elig mode %d): Select = (%d,%v), SelectScan = (%d,%v)",
							slot, elig.mode, gotQ, gotOK, wantQ, wantOK)
					}
					if gotOK && rng.Float64() < tc.replenish {
						m.OnReplenish(gotQ)
					}
				}
			}
		})
	}
}

func TestDifferentialTailMMA(t *testing.T) {
	cases := []struct {
		q, b     int
		transfer float64 // probability the selected block actually moves
	}{
		{4, 1, 1.0},
		{16, 2, 0.9},
		{64, 4, 0.8},
		{512, 8, 1.0},
		// transfer 0.05 lets occupancies pile far past the overflow
		// boundary (exact-scan bucket).
		{8, 4, 0.05},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("Q=%d_b=%d", tc.q, tc.b), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(3000*tc.q + tc.b)))
			tm, err := NewTailMMA(tc.b, tc.q)
			if err != nil {
				t.Fatal(err)
			}
			elig := newEligModel(tc.q)
			elig.reroll(rng)
			const slots = 120000
			for slot := 0; slot < slots; slot++ {
				if rng.Float64() < 0.9 {
					tm.OnArrival(cell.QueueID(rng.Intn(tc.q)))
				}
				// Occasional bypass on a queue with resident cells, as the
				// cut-through path would issue.
				if rng.Float64() < 0.2 {
					q := cell.QueueID(rng.Intn(tc.q))
					if tm.Occupancy(q) > 0 {
						tm.OnBypass(q)
					}
				}
				if slot%tc.b == tc.b-1 {
					if slot%173 == 0 {
						elig.reroll(rng)
					}
					cl := elig.logClosure()
					if elig.mode == 2 {
						// The tail MMA has no bitset mode; fold it into an
						// equivalent closure so all rerolls still exercise
						// restricted eligibility.
						cl = func(q cell.QueueID) bool { return elig.bits.Has(int(q)) }
					}
					wantQ, wantOK := tm.SelectScan(cl)
					gotQ, gotOK := tm.Select(cl)
					if gotQ != wantQ || gotOK != wantOK {
						t.Fatalf("slot %d (elig mode %d): Select = (%d,%v), SelectScan = (%d,%v)",
							slot, elig.mode, gotQ, gotOK, wantQ, wantOK)
					}
					if gotOK && rng.Float64() < tc.transfer {
						tm.OnTransfer(gotQ)
					}
				}
			}
		})
	}
}

// TestIndexedSelectZeroAlloc asserts the steady-state index paths —
// event updates plus Select — never allocate once warmed.
func TestIndexedSelectZeroAlloc(t *testing.T) {
	const q, b = 256, 4
	look, _ := NewLookahead(q*(b-1) + 1)
	e, _ := NewECQF(look, b, q)
	m, _ := NewMDQF(b, q)
	tm, _ := NewTailMMA(b, q)
	elig := bitset.New(q)
	for i := 0; i < q; i++ {
		elig.Set(i)
	}
	e.SetEligibility(elig)
	m.SetEligibility(elig)
	rng := rand.New(rand.NewSource(5))
	// Warm: fill the window, grow the position rings and buckets.
	for slot := 0; slot < 8*q*b; slot++ {
		look.Shift(cell.PhysQueueID(rng.Intn(q)))
		m.OnRequestEnter(cell.PhysQueueID(rng.Intn(q)))
		tm.OnArrival(cell.QueueID(rng.Intn(q)))
		if slot%b == b-1 {
			if sel, ok := e.Select(nil); ok {
				e.OnReplenish(sel)
			}
			if sel, ok := m.Select(nil); ok {
				m.OnReplenish(sel)
			}
			if sel, ok := tm.Select(nil); ok {
				tm.OnTransfer(sel)
			}
		}
	}
	slot := 0
	allocs := testing.AllocsPerRun(2000, func() {
		slot++
		look.Shift(cell.PhysQueueID(slot % q))
		m.OnRequestEnter(cell.PhysQueueID((slot * 7) % q))
		tm.OnArrival(cell.QueueID((slot * 13) % q))
		if sel, ok := e.Select(nil); ok {
			e.OnReplenish(sel)
		}
		if sel, ok := m.Select(nil); ok {
			m.OnReplenish(sel)
		}
		if sel, ok := tm.Select(nil); ok {
			tm.OnTransfer(sel)
		}
	})
	if allocs != 0 {
		t.Fatalf("indexed MMA steady state allocated %.2f/op", allocs)
	}
}
