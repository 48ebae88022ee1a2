package mma

import (
	"testing"

	"repro/internal/bitset"
	"repro/internal/cell"
)

// FuzzECQFIndexMatchesScan drives an ECQF through arbitrary sequences
// of lookahead shifts, replenishes and ledger writes and, after every
// step, requires the linked window index to hold exactly the critical
// slots a scan of the lookahead finds, and Select to agree with the
// SelectScan reference with and without an eligibility bitset. The
// header bytes pick Q (1–8), b (1–4) and the lookahead length (1–16);
// each further byte is one step:
//
//	0–95    shift in queue v%Q (the queue leaving is debited)
//	96–127  shift in the queue about to leave, if any (in == out)
//	128–159 shift in an idle entry
//	160–223 replenish queue v%Q, with or without pending requests
//	224–255 force queue v%Q's ledger into [−8, 7] (negative ledgers)
func FuzzECQFIndexMatchesScan(f *testing.F) {
	f.Add([]byte{3, 1, 5, 0, 1, 2, 0, 0, 170, 100, 130, 229, 160, 161, 0, 97})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 96, 96, 96, 160, 160, 160, 128, 128})
	f.Add([]byte{7, 3, 15, 1, 2, 3, 4, 5, 6, 7, 224, 225, 226, 180, 181, 182, 99, 98, 140, 1, 1, 1, 1, 200, 201})
	f.Add([]byte{1, 3, 2, 0, 1, 0, 1, 0, 1, 160, 161, 160, 161, 232, 233, 96, 97, 96, 97})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		q, b, size := int(data[0]%8)+1, int(data[1]%4)+1, int(data[2]%16)+1
		look, err := NewLookahead(size)
		if err != nil {
			t.Fatal(err)
		}
		e, err := NewECQF(look, b, q)
		if err != nil {
			t.Fatal(err)
		}
		elig := bitset.New(q)
		for i, v := range data[3:] {
			switch {
			case v < 96:
				look.Shift(cell.PhysQueueID(int(v) % q))
			case v < 128:
				look.Shift(look.At(0))
			case v < 160:
				look.Shift(cell.NoPhysQueue)
			case v < 224:
				e.OnReplenish(cell.PhysQueueID(int(v) % q))
			default:
				e.setOcc(cell.PhysQueueID(int(v)%q), int32(v%16)-8)
			}
			checkECQFIndex(t, e, i)
			for k := 0; k < q; k++ {
				if (int(v)>>k)&1 == 1 {
					elig.Set(k)
				} else {
					elig.Clear(k)
				}
			}
			for _, bits := range []*bitset.Set{nil, elig} {
				e.SetEligibility(bits)
				gotQ, gotOK := e.Select(nil)
				wantQ, wantOK := e.SelectScan(nil)
				if gotQ != wantQ || gotOK != wantOK {
					t.Fatalf("step %d (bits %v): Select = (%d,%v), SelectScan = (%d,%v)",
						i, bits != nil, gotQ, gotOK, wantQ, wantOK)
				}
			}
		}
	})
}

// checkECQFIndex re-derives every queue's window list and critical
// slot from a head-to-tail scan of the lookahead and compares them,
// and the critical bitmap, with the incrementally kept index.
func checkECQFIndex(t *testing.T, e *ECQF, step int) {
	t.Helper()
	n := len(e.look.ring)
	type want struct {
		slots []int32
		crit  int32
	}
	ws := make([]want, len(e.occ))
	for i := range n {
		slot := int32((e.look.head + i) % n)
		if q := e.look.ring[slot]; q != cell.NoPhysQueue {
			ws[q].slots = append(ws[q].slots, slot)
		}
	}
	critBits := 0
	for q := range ws {
		w, got := &ws[q], e.win[q]
		w.crit = -1
		if k := int(max(e.occ[q], 0)); k < len(w.slots) {
			w.crit = w.slots[k]
			critBits++
		}
		if int(got.count) != len(w.slots) || got.critSlot != w.crit {
			t.Fatalf("step %d queue %d: count %d crit %d, want %d and %d (occ %d, slots %v)",
				step, q, got.count, got.critSlot, len(w.slots), w.crit, e.occ[q], w.slots)
		}
		for i, slot := 0, got.first; i < len(w.slots); i, slot = i+1, e.next[slot] {
			if slot != w.slots[i] {
				t.Fatalf("step %d queue %d: list %d-th slot %d, want %d", step, q, i, slot, w.slots[i])
			}
		}
		if len(w.slots) > 0 && got.last != w.slots[len(w.slots)-1] {
			t.Fatalf("step %d queue %d: last %d, want %d", step, q, got.last, w.slots[len(w.slots)-1])
		}
		if w.crit >= 0 && !e.crit.Has(int(w.crit)) {
			t.Fatalf("step %d queue %d: critical slot %d not in the bitmap", step, q, w.crit)
		}
	}
	set := 0
	for i := e.crit.First(); i >= 0; i = e.crit.NextFrom(i + 1) {
		set++
	}
	if set != critBits {
		t.Fatalf("step %d: bitmap holds %d slots, want %d", step, set, critBits)
	}
}
