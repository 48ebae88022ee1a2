package dram

import (
	"errors"
	"testing"

	"repro/internal/cell"
)

// listModel is the plain model FuzzQueueBlockList checks a queue's
// list against: every block by ordinal with its state, and the
// cursors.
type listModel struct {
	blocks               []Block
	states               []State
	wres, rres, pop, off uint64
}

// pick returns the ordinal of the k-th (mod their number) of the
// queue's blocks in state st, if any.
func (m *listModel) pick(st State, k byte) (uint64, bool) {
	var ords []uint64
	for o := m.pop; o < m.wres; o++ {
		if m.states[o] == st {
			ords = append(ords, o)
		}
	}
	if len(ords) == 0 {
		return 0, false
	}
	return ords[int(k)%len(ords)], true
}

// FuzzQueueBlockList drives a few queues' block lists through
// fuzzer-chosen interleavings — stage and reserve writes, issue them
// out of order, reserve reads, issue them and land them out of order,
// pop cells, and misuse each step — and checks every step against a
// map-of-ordinals model: the same outcome and sentinel per operation,
// the same readable-now bits, and, after a full drain, every handle
// back in the slab.
func FuzzQueueBlockList(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 1, 0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 0, 5, 0})
	f.Add([]byte{0, 1, 0, 1, 0, 1, 1, 5, 1, 3, 2, 1, 2, 1, 3, 4, 4, 3, 4, 0, 5, 1, 5, 1, 6, 1, 7, 1})
	f.Add([]byte{0, 0, 0, 2, 0, 0, 0, 2, 0, 0, 0, 2, 0, 0, 1, 0, 1, 2, 7, 0, 6, 2})
	f.Fuzz(func(t *testing.T, ops []byte) {
		const queues, b = 3, 2
		// Two groups of two banks, two blocks a bank: queues 0 and 2
		// share group 0's four blocks. Banks free up after one slot.
		d := New(Config{Banks: 4, BanksPerGroup: 2, AccessSlots: 1, BlockCells: b, BankCapacityBlocks: 2, Queues: queues})
		models := make([]listModel, queues)
		group := make([]int, 2)
		now := cell.Slot(0)
		check := func(i int, what string, err, want error) {
			t.Helper()
			if (want == nil) != (err == nil) || (want != nil && !errors.Is(err, want)) {
				t.Fatalf("op %d %s: err = %v, want %v", i, what, err, want)
			}
		}
		for i := 0; i+1 < len(ops); i += 2 {
			p := cell.PhysQueueID(ops[i+1] % queues)
			m, k := &models[p], ops[i+1]/queues
			now++
			switch ops[i] % 8 {
			case 0: // stage and reserve a write
				blk := d.AcquireBlock()
				d.SetCells(blk, cell.QueueID(p), m.wres*b)
				o, _, err := d.ReserveWrite(p, blk)
				if g := int(p) % 2; group[g] == 4 {
					check(i, "reserve write", err, ErrGroupFull)
					d.ReleaseBlock(blk)
					continue
				} else {
					group[g]++
				}
				check(i, "reserve write", err, nil)
				if o != m.wres {
					t.Fatalf("op %d: write ordinal %d, want %d", i, o, m.wres)
				}
				m.blocks, m.states = append(m.blocks, blk), append(m.states, Staged)
				m.wres++
			case 1: // issue a staged write, in any order
				if o, ok := m.pick(Staged, k); ok {
					_, err := d.BeginWriteAt(p, o, m.blocks[o], now)
					check(i, "issue write", err, nil)
					m.states[o] = Stored
				}
			case 2: // reserve the next read
				o, _, blk, err := d.ReserveRead(p)
				if m.rres == m.wres || m.states[m.rres] != Stored {
					check(i, "reserve read", err, ErrQueueEmpty)
					continue
				}
				check(i, "reserve read", err, nil)
				if o != m.rres || blk != m.blocks[o] {
					t.Fatalf("op %d: read ordinal %d block %d, want %d block %d", i, o, blk, m.rres, m.blocks[m.rres])
				}
				m.states[o] = ReadReserved
				m.rres++
			case 3: // issue a reserved read, in any order
				if o, ok := m.pick(ReadReserved, k); ok {
					_, err := d.BeginReadAt(p, o, m.blocks[o], now)
					check(i, "issue read", err, nil)
					m.states[o] = InFlight
					group[int(p)%2]--
				}
			case 4: // land a block in flight, in any order
				if o, ok := m.pick(InFlight, k); ok {
					check(i, "land", d.Land(p, o, m.blocks[o]), nil)
					m.states[o] = Landed
				}
			case 5: // pop the next cell
				c, ok := d.Pop(p)
				want := m.pop < m.wres && m.states[m.pop] == Landed
				if ok != want {
					t.Fatalf("op %d: pop ok = %v, want %v", i, ok, want)
				}
				if !ok {
					continue
				}
				if c != (cell.Cell{Queue: cell.QueueID(p), Seq: m.pop*b + m.off}) {
					t.Fatalf("op %d: popped %v, want seq %d", i, c, m.pop*b+m.off)
				}
				if m.off++; m.off == b {
					m.states[m.pop] = Unlinked
					m.pop, m.off = m.pop+1, 0
				}
			case 6: // issue a write of a block that is not staged
				// An ordinal off the list names a block never reserved.
				o := uint64(k) % (m.wres + 1)
				if o >= m.pop && o < m.wres {
					if m.states[o] != Staged {
						_, err := d.BeginWriteAt(p, o, m.blocks[o], now)
						check(i, "misissued write", err, ErrBadOrdinal)
					}
					continue
				}
				blk := d.AcquireBlock()
				d.SetCells(blk, cell.QueueID(p), 0)
				_, err := d.BeginWriteAt(p, o, blk, now)
				check(i, "unreserved write", err, ErrBadOrdinal)
				d.ReleaseBlock(blk)
			case 7: // issue a read, or land a block, in the wrong state
				if m.pop == m.wres {
					continue
				}
				o := m.pop + uint64(k)%(m.wres-m.pop)
				if st := m.states[o]; st != ReadReserved {
					_, err := d.BeginReadAt(p, o, m.blocks[o], now)
					check(i, "misissued read", err, ErrBadOrdinal)
				}
				if st := m.states[o]; st != InFlight {
					check(i, "mislanded block", d.Land(p, o, m.blocks[o]), ErrBadOrdinal)
				}
			}
			for q := range models {
				m := &models[q]
				want := m.rres < m.wres && m.states[m.rres] == Stored
				if got := d.ReadableNow(cell.PhysQueueID(q)); got != want {
					t.Fatalf("op %d: queue %d readable now = %v, want %v", i, q, got, want)
				}
			}
		}
		// Drain: every block through every remaining step, every cell
		// popped in order.
		for q := range models {
			p, m := cell.PhysQueueID(q), &models[q]
			for o := m.pop; o < m.wres; o++ {
				now++
				if m.states[o] == Staged {
					if _, err := d.BeginWriteAt(p, o, m.blocks[o], now); err != nil {
						t.Fatalf("drain write %d of queue %d: %v", o, q, err)
					}
				}
			}
			for ; m.rres < m.wres; m.rres++ {
				if _, _, _, err := d.ReserveRead(p); err != nil {
					t.Fatalf("drain read reserve of queue %d: %v", q, err)
				}
			}
			for o := m.pop; o < m.wres; o++ {
				now++
				blk := m.blocks[o]
				if d.State(blk) == ReadReserved {
					if _, err := d.BeginReadAt(p, o, blk, now); err != nil {
						t.Fatalf("drain read %d of queue %d: %v", o, q, err)
					}
				}
				if d.State(blk) == InFlight {
					if err := d.Land(p, o, blk); err != nil {
						t.Fatalf("drain landing %d of queue %d: %v", o, q, err)
					}
				}
			}
			for seq := m.pop*b + m.off; seq < m.wres*b; seq++ {
				if c, ok := d.Pop(p); !ok || c.Seq != seq {
					t.Fatalf("drain pop of queue %d = %v, %v; want seq %d", q, c, ok, seq)
				}
			}
		}
		free := 0
		for blk := d.free; blk != NoBlock; blk = d.Next(blk) {
			free++
		}
		if free != int(d.blocks) {
			t.Fatalf("%d of %d handles back in the slab after a full drain", free, d.blocks)
		}
	})
}
