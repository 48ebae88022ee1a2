package cell

import (
	"math"
	"testing"
	"testing/quick"
)

func TestLineRateGbps(t *testing.T) {
	tests := []struct {
		rate LineRate
		want float64
	}{
		{OC192, 10},
		{OC768, 40},
		{OC3072, 160},
		{LineRate(99), 0},
	}
	for _, tt := range tests {
		if got := tt.rate.Gbps(); got != tt.want {
			t.Errorf("%v.Gbps() = %v, want %v", tt.rate, got, tt.want)
		}
	}
}

func TestSlotTimeMatchesPaper(t *testing.T) {
	// §2: "for a line rate of 160 Gb/s the basic time-slot is of 3.2 ns".
	if got := OC3072.SlotTimeNS(); math.Abs(got-3.2) > 1e-9 {
		t.Errorf("OC3072 slot time = %v ns, want 3.2", got)
	}
	// §7.2: "For an OC-768 system, we need to access a new cell every 12.8 ns".
	if got := OC768.SlotTimeNS(); math.Abs(got-12.8) > 1e-9 {
		t.Errorf("OC768 slot time = %v ns, want 12.8", got)
	}
	if got := OC192.SlotTimeNS(); math.Abs(got-51.2) > 1e-9 {
		t.Errorf("OC192 slot time = %v ns, want 51.2", got)
	}
}

func TestAccessBudgetEqualsSlotTime(t *testing.T) {
	for _, r := range []LineRate{OC192, OC768, OC3072} {
		if r.AccessBudgetNS() != r.SlotTimeNS() {
			t.Errorf("%v: budget %v != slot time %v", r, r.AccessBudgetNS(), r.SlotTimeNS())
		}
	}
}

func TestGranularityMatchesPaper(t *testing.T) {
	// §7: B=8 for OC-768, B=32 for OC-3072 at 48 ns DRAM access.
	if got := OC768.Granularity(DefaultDRAMAccessNS); got != 8 {
		t.Errorf("OC768 granularity = %d, want 8", got)
	}
	if got := OC3072.Granularity(DefaultDRAMAccessNS); got != 32 {
		t.Errorf("OC3072 granularity = %d, want 32", got)
	}
	if got := OC192.Granularity(DefaultDRAMAccessNS); got != 2 {
		t.Errorf("OC192 granularity = %d, want 2", got)
	}
}

func TestGranularityZeroRate(t *testing.T) {
	if got := LineRate(99).Granularity(DefaultDRAMAccessNS); got != 0 {
		t.Errorf("unknown rate granularity = %d, want 0", got)
	}
}

func TestGranularityCoversAccessTime(t *testing.T) {
	// Property: B slots must cover the DRAM access time, and B must be
	// a power of two.
	f := func(accessTenthNS uint16) bool {
		access := float64(accessTenthNS) / 10.0
		for _, r := range []LineRate{OC192, OC768, OC3072} {
			b := r.Granularity(access)
			if b <= 0 {
				return false
			}
			if float64(b)*r.SlotTimeNS() < 2*access {
				return false
			}
			if b&(b-1) != 0 {
				return false
			}
			// Minimality: half of B must not cover (unless B==1).
			if b > 1 && float64(b/2)*r.SlotTimeNS() >= 2*access {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBufferBytesRuleOfThumb(t *testing.T) {
	// §2: 0.2 s RTT at 160 Gb/s -> 4 GB.
	if got := OC3072.BufferBytes(0.2); got != 4e9 {
		t.Errorf("OC3072 buffer = %d bytes, want 4e9", got)
	}
	if got := OC768.BufferBytes(0.2); got != 1e9 {
		t.Errorf("OC768 buffer = %d bytes, want 1e9", got)
	}
}

func TestCellString(t *testing.T) {
	c := Cell{Queue: 3, Seq: 17}
	if got, want := c.String(), "cell{q=3 seq=17}"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

func TestLineRateString(t *testing.T) {
	if OC3072.String() != "OC-3072" || OC768.String() != "OC-768" || OC192.String() != "OC-192" {
		t.Error("unexpected LineRate strings")
	}
	if LineRate(7).String() != "LineRate(7)" {
		t.Errorf("unknown rate string = %q", LineRate(7).String())
	}
}

// TestAdvanceCursorIsModulo: the wrap-compare fast path and the long
// jump agree with (i+n) mod size everywhere around the ring boundary.
func TestAdvanceCursorIsModulo(t *testing.T) {
	for size := 1; size <= 9; size++ {
		for i := 0; i < size; i++ {
			for _, n := range []uint64{0, 1, uint64(size) - 1, uint64(size), uint64(size) + 1, 3*uint64(size) + 2, math.MaxUint32} {
				if got, want := AdvanceCursor(i, n, size), int((uint64(i)+n)%uint64(size)); got != want {
					t.Errorf("AdvanceCursor(%d, %d, %d) = %d, want %d", i, n, size, got, want)
				}
			}
		}
	}
}
