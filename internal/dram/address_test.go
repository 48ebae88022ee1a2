package dram

import (
	"testing"
	"testing/quick"

	"repro/internal/cell"
)

func TestNewMapperValidation(t *testing.T) {
	if _, err := NewMapper(4, 4, 2, 64, 16); err != nil {
		t.Fatalf("valid mapper: %v", err)
	}
	bad := [][5]int{
		{3, 4, 2, 64, 16},   // groups not power of two
		{4, 3, 2, 64, 16},   // banksPerGroup not power of two
		{4, 4, 3, 64, 16},   // blockCells not power of two
		{4, 4, 2, 60, 16},   // queueSpace not power of two
		{4, 4, 2, 64, 15},   // ordinalSpace not power of two
		{0, 4, 2, 64, 16},   // zero
		{128, 4, 2, 64, 16}, // groups exceed queue space
		{4, 32, 2, 64, 16},  // banks exceed ordinal space
	}
	for i, c := range bad {
		if _, err := NewMapper(c[0], c[1], c[2], c[3], c[4]); err == nil {
			t.Errorf("case %d: NewMapper(%v) succeeded, want error", i, c)
		}
	}
}

func TestMapMatchesFigure6(t *testing.T) {
	m, err := NewMapper(4, 4, 2, 64, 16)
	if err != nil {
		t.Fatal(err)
	}
	// Queue 5 -> group 5 mod 4 = 1; ordinal 6 -> bank-in-group 2;
	// flat bank = 1*4+2 = 6.
	a := m.Map(5, 6)
	if a.Group != 1 || a.BankInGroup != 2 || a.Bank != 6 {
		t.Errorf("Map(5,6) = %+v", a)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	m, err := NewMapper(8, 4, 4, 1024, 256)
	if err != nil {
		t.Fatal(err)
	}
	f := func(pRaw uint16, ordRaw uint8) bool {
		p := cell.PhysQueueID(pRaw % 1024)
		ord := uint64(ordRaw)
		addr := m.Encode(p, ord)
		// Block alignment: low log2(4*64)=8 bits zero.
		if addr&0xff != 0 {
			return false
		}
		dec := m.Decode(addr)
		return dec.Queue == p && dec.Ordinal == ord &&
			dec.Group == int(p)%8 && dec.BankInGroup == int(ord%4) &&
			dec.Bank == BankID(dec.Group*4+dec.BankInGroup)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMapperAgreesWithDRAM(t *testing.T) {
	// The Mapper's bank assignment must agree with the DRAM model's
	// internal bankFor on power-of-two geometries.
	cfg := Config{Banks: 16, BanksPerGroup: 4, AccessSlots: 8, BlockCells: 2}
	d := New(cfg)
	m, err := NewMapper(cfg.Groups(), cfg.BanksPerGroup, cfg.BlockCells, 64, 64)
	if err != nil {
		t.Fatal(err)
	}
	now := cell.Slot(0)
	for p := cell.PhysQueueID(0); p < 8; p++ {
		for k := uint64(0); k < 6; k++ {
			want := m.Map(p, k).Bank
			got, err := writeNext(d, p, mkBlock(d, cell.QueueID(p), 2*k), now)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("queue %d block %d: DRAM bank %d, Mapper bank %d", p, k, got, want)
			}
			now += 8
		}
	}
}
