package dram

import (
	"errors"
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/cell"
)

func testConfig() Config {
	return Config{
		Banks:              16,
		BanksPerGroup:      4,
		AccessSlots:        8,
		BlockCells:         2,
		BankCapacityBlocks: 4,
	}
}

// mkBlock stages a block of q's cells start, start+1, … in d's slab.
func mkBlock(d *DRAM, q cell.QueueID, start uint64) Block {
	blk := d.AcquireBlock()
	d.SetCells(blk, q, start)
	return blk
}

// cellsOf returns a copy of blk's cells.
func cellsOf(s *Slab, blk Block) []cell.Cell {
	cells := make([]cell.Cell, s.BlockCells())
	for k := range cells {
		cells[k] = s.Cell(blk, k)
	}
	return cells
}

// writeNext reserves queue p's next write ordinal for staged block blk
// and issues it at now: the in-order path, where reservation and issue
// coincide.
func writeNext(d *DRAM, p cell.PhysQueueID, blk Block, now cell.Slot) (BankID, error) {
	ordinal, _, err := d.ReserveWrite(p, blk)
	if err != nil {
		return NoBank, err
	}
	return d.BeginWriteAt(p, ordinal, blk, now)
}

// readNext reserves queue p's next read ordinal and issues it at now,
// then lands the block and pops its cells (it is p's front block),
// returning them.
func readNext(d *DRAM, p cell.PhysQueueID, now cell.Slot) (BankID, []cell.Cell, error) {
	ordinal, _, blk, err := d.ReserveRead(p)
	if err != nil {
		return NoBank, nil, err
	}
	bank, err := d.BeginReadAt(p, ordinal, blk, now)
	if err != nil {
		return NoBank, nil, err
	}
	cells, err := deliver(d, p, ordinal, blk)
	return bank, cells, err
}

// deliver lands in-flight block blk, ordinal of p, and pops its cells,
// which must be p's next ones.
func deliver(d *DRAM, p cell.PhysQueueID, ordinal uint64, blk Block) ([]cell.Cell, error) {
	if err := d.Land(p, ordinal, blk); err != nil {
		return nil, err
	}
	cells := make([]cell.Cell, d.BlockCells())
	for k := range cells {
		c, ok := d.Pop(p)
		if !ok {
			return nil, fmt.Errorf("pop %d of block %d: front not landed", k, ordinal)
		}
		cells[k] = c
	}
	return cells, nil
}

func TestConfigValidate(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Config)
		ok     bool
	}{
		{"valid", func(c *Config) {}, true},
		{"zero banks", func(c *Config) { c.Banks = 0 }, false},
		{"zero per group", func(c *Config) { c.BanksPerGroup = 0 }, false},
		{"group not divisor", func(c *Config) { c.BanksPerGroup = 3 }, false},
		{"zero access", func(c *Config) { c.AccessSlots = 0 }, false},
		{"zero block", func(c *Config) { c.BlockCells = 0 }, false},
		{"negative capacity", func(c *Config) { c.BankCapacityBlocks = -1 }, false},
		{"unbounded capacity ok", func(c *Config) { c.BankCapacityBlocks = 0 }, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := testConfig()
			tt.mutate(&cfg)
			if err := cfg.Validate(); (err == nil) != tt.ok {
				t.Errorf("Validate() = %v, want ok=%v", err, tt.ok)
			}
		})
	}
}

func TestNewPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New did not panic on invalid config")
		}
	}()
	New(Config{})
}

func TestGroupAssignment(t *testing.T) {
	d := New(testConfig()) // G = 4
	for p := 0; p < 12; p++ {
		if got, want := d.Group(cell.PhysQueueID(p)), p%4; got != want {
			t.Errorf("Group(%d) = %d, want %d", p, got, want)
		}
	}
}

func TestBlockCyclicInterleave(t *testing.T) {
	d := New(testConfig())
	p := cell.PhysQueueID(1) // group 1, banks 4..7
	now := cell.Slot(0)
	var banks []BankID
	for k := 0; k < 8; k++ {
		b := d.WriteBank(p)
		got, err := writeNext(d, p, mkBlock(d, 1, uint64(2*k)), now)
		if err != nil {
			t.Fatalf("write %d: %v", k, err)
		}
		if got != b {
			t.Errorf("write %d: WriteBank predicted %d, used %d", k, b, got)
		}
		banks = append(banks, got)
		now += cell.Slot(d.Config().AccessSlots)
	}
	want := []BankID{4, 5, 6, 7, 4, 5, 6, 7}
	for i := range want {
		if banks[i] != want[i] {
			t.Errorf("block %d went to bank %d, want %d (round-robin within group)", i, banks[i], want[i])
		}
	}
}

func TestConflictDetection(t *testing.T) {
	d := New(testConfig())
	p := cell.PhysQueueID(0)
	if _, err := writeNext(d, p, mkBlock(d, 0, 0), 0); err != nil {
		t.Fatal(err)
	}
	// Writing to the same queue 4 blocks later returns to bank 0; but
	// the immediate next block goes to bank 1, so no conflict.
	if _, err := writeNext(d, p, mkBlock(d, 0, 2), 1); err != nil {
		t.Fatalf("different bank should not conflict: %v", err)
	}
	// Reading the front block (bank 0) before AccessSlots have passed
	// must conflict.
	o, _, blk, err := d.ReserveRead(p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.BeginReadAt(p, o, blk, 7); !errors.Is(err, ErrBankConflict) {
		t.Errorf("read at slot 7 err = %v, want ErrBankConflict", err)
	}
	// At slot 8 the bank is free again.
	if _, err := d.BeginReadAt(p, o, blk, 8); err != nil {
		t.Errorf("read at slot 8: %v", err)
	}
}

func TestReadFIFOAndCells(t *testing.T) {
	d := New(testConfig())
	p := cell.PhysQueueID(2)
	now := cell.Slot(0)
	for k := 0; k < 4; k++ {
		if _, err := writeNext(d, p, mkBlock(d, 2, uint64(2*k)), now); err != nil {
			t.Fatal(err)
		}
		now += 8
	}
	if got := d.QueueCells(p); got != 8 {
		t.Errorf("QueueCells = %d, want 8", got)
	}
	var seqs []uint64
	for k := 0; k < 4; k++ {
		_, cells, err := readNext(d, p, now)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range cells {
			if c.Queue != 2 {
				t.Errorf("cell from wrong queue: %v", c)
			}
			seqs = append(seqs, c.Seq)
		}
		now += 8
	}
	for i := range seqs {
		if seqs[i] != uint64(i) {
			t.Errorf("seq[%d] = %d, want %d (FIFO violated)", i, seqs[i], i)
		}
	}
}

func TestReadEmptyQueue(t *testing.T) {
	d := New(testConfig())
	_, _, err := readNext(d, 5, 0)
	if !errors.Is(err, ErrQueueEmpty) {
		t.Errorf("err = %v, want ErrQueueEmpty", err)
	}
}

// TestBadBlockSize: every slab block holds exactly b cells, so the one
// malformed block a write can name is a handle the slab never issued.
func TestBadBlockSize(t *testing.T) {
	d := New(testConfig())
	if got := len(d.AppendCells(nil, mkBlock(d, 0, 0))) / 2; got != d.Config().BlockCells {
		t.Errorf("block holds %d cells, want b = %d", got, d.Config().BlockCells)
	}
	for _, blk := range []Block{NoBlock, -1, 2} {
		if _, err := writeNext(d, 0, blk, 0); !errors.Is(err, ErrBadBlock) {
			t.Errorf("handle %d: err = %v, want ErrBadBlock", blk, err)
		}
	}
}

func TestCapacityAndGroupFull(t *testing.T) {
	d := New(testConfig()) // 4 blocks/bank, 4 banks/group -> 16 blocks/group
	p := cell.PhysQueueID(3)
	now := cell.Slot(0)
	if got := d.GroupCapacityBlocks(); got != 16 {
		t.Fatalf("GroupCapacityBlocks = %d, want 16", got)
	}
	for k := 0; k < 16; k++ {
		if !d.CanWrite(p) {
			t.Fatalf("CanWrite false at block %d", k)
		}
		if _, err := writeNext(d, p, mkBlock(d, 3, uint64(2*k)), now); err != nil {
			t.Fatalf("write %d: %v", k, err)
		}
		now += 8
	}
	if d.CanWrite(p) {
		t.Error("CanWrite true for full group")
	}
	_, _, err := d.ReserveWrite(p, mkBlock(d, 3, 32))
	if !errors.Is(err, ErrGroupFull) {
		t.Errorf("err = %v, want ErrGroupFull", err)
	}
	// Other groups unaffected.
	if !d.CanWrite(cell.PhysQueueID(0)) {
		t.Error("group 0 should still accept writes")
	}
	if got := d.GroupOccupancy(3); got != 16 {
		t.Errorf("GroupOccupancy(3) = %d, want 16", got)
	}
	if got := d.TotalOccupancyBlocks(); got != 16 {
		t.Errorf("TotalOccupancyBlocks = %d, want 16", got)
	}
}

func TestUnboundedCapacity(t *testing.T) {
	cfg := testConfig()
	cfg.BankCapacityBlocks = 0
	d := New(cfg)
	now := cell.Slot(0)
	for k := 0; k < 100; k++ {
		if !d.CanWrite(0) {
			t.Fatal("unbounded DRAM reported full")
		}
		if _, err := writeNext(d, 0, mkBlock(d, 0, uint64(2*k)), now); err != nil {
			t.Fatal(err)
		}
		now += 8
	}
	if got := d.TotalCapacityBlocks(); got != 0 {
		t.Errorf("TotalCapacityBlocks = %d, want 0 (unbounded)", got)
	}
}

func TestLeastOccupiedGroup(t *testing.T) {
	d := New(testConfig())
	now := cell.Slot(0)
	// Fill group 0 with 2 blocks, group 1 with 1 block.
	for k := 0; k < 2; k++ {
		if _, err := writeNext(d, 0, mkBlock(d, 0, uint64(2*k)), now); err != nil {
			t.Fatal(err)
		}
		now += 8
	}
	if _, err := writeNext(d, 1, mkBlock(d, 1, 0), now); err != nil {
		t.Fatal(err)
	}
	if got := d.LeastOccupiedGroup(); got != 2 {
		t.Errorf("LeastOccupiedGroup = %d, want 2 (empty)", got)
	}
}

func TestReadBankTracksFront(t *testing.T) {
	d := New(testConfig())
	p := cell.PhysQueueID(0)
	if got := d.ReadBank(p); got != NoBank {
		t.Errorf("ReadBank empty = %d, want NoBank", got)
	}
	now := cell.Slot(0)
	for k := 0; k < 3; k++ {
		if _, err := writeNext(d, p, mkBlock(d, 0, uint64(2*k)), now); err != nil {
			t.Fatal(err)
		}
		now += 8
	}
	for k := 0; k < 3; k++ {
		want := BankID(k) // group 0 banks 0..3 round-robin
		if got := d.ReadBank(p); got != want {
			t.Errorf("ReadBank before read %d = %d, want %d", k, got, want)
		}
		if _, _, err := readNext(d, p, now); err != nil {
			t.Fatal(err)
		}
		now += 8
	}
}

func TestAccessesCounter(t *testing.T) {
	d := New(testConfig())
	if _, err := writeNext(d, 0, mkBlock(d, 0, 0), 0); err != nil {
		t.Fatal(err)
	}
	if _, _, err := readNext(d, 0, 8); err != nil {
		t.Fatal(err)
	}
	if got := d.Accesses(); got != 2 {
		t.Errorf("Accesses = %d, want 2", got)
	}
}

// TestPropertyConsecutiveQueueAccessesConflictFree verifies the §5.1
// claim: B/b consecutive accesses to the same queue never conflict,
// because the interleave advances one bank per block.
func TestPropertyConsecutiveQueueAccessesConflictFree(t *testing.T) {
	f := func(pRaw uint8, spacing uint8) bool {
		cfg := Config{Banks: 32, BanksPerGroup: 8, AccessSlots: 8, BlockCells: 1}
		d := New(cfg)
		p := cell.PhysQueueID(pRaw % 16)
		gap := cell.Slot(spacing%3 + 1) // 1..3 slots between accesses (b=1)
		now := cell.Slot(0)
		// 8 consecutive writes to the same queue at b-slot spacing must
		// all succeed as long as gap*8 >= AccessSlots... with gap=1,
		// bank reuse happens after 8 slots = AccessSlots exactly.
		for k := 0; k < 16; k++ {
			if _, err := writeNext(d, p, mkBlock(d, cell.QueueID(p), uint64(k)), now); err != nil {
				return false
			}
			now += gap
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestPropertyCellConservation writes random blocks to random queues,
// reads them all back, and checks nothing is lost or duplicated.
func TestPropertyCellConservation(t *testing.T) {
	f := func(seed uint16) bool {
		cfg := Config{Banks: 8, BanksPerGroup: 2, AccessSlots: 4, BlockCells: 2}
		d := New(cfg)
		now := cell.Slot(0)
		written := make(map[cell.PhysQueueID]uint64)
		rng := uint64(seed) + 1
		next := func(n uint64) uint64 { rng = rng*6364136223846793005 + 1442695040888963407; return (rng >> 33) % n }
		for i := 0; i < 40; i++ {
			p := cell.PhysQueueID(next(6))
			seq := written[p]
			if _, err := writeNext(d, p, mkBlock(d, cell.QueueID(p), seq), now); err != nil {
				return false
			}
			written[p] = seq + 2
			now += 4 // one access per AccessSlots: trivially conflict-free
		}
		for p, n := range written {
			var got uint64
			for d.QueueBlocks(p) > 0 {
				_, cells, err := readNext(d, p, now)
				if err != nil {
					return false
				}
				for _, c := range cells {
					if c.Seq != got || c.Queue != cell.QueueID(p) {
						return false
					}
					got++
				}
				now += 4
			}
			if got != n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestUtilization(t *testing.T) {
	d := New(testConfig()) // AccessSlots=8, 16 banks
	if got := d.Utilization(0); got != 0 {
		t.Errorf("Utilization(0) = %v", got)
	}
	if _, err := writeNext(d, 0, mkBlock(d, 0, 0), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := writeNext(d, 1, mkBlock(d, 1, 0), 0); err != nil {
		t.Fatal(err)
	}
	// Two 8-slot accesses over 16 banks × 8 slots = 16/128.
	want := 16.0 / 128.0
	if got := d.Utilization(8); got != want {
		t.Errorf("Utilization(8) = %v, want %v", got, want)
	}
}
