package dimension

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/cell"
)

// oc768 and oc3072 are the paper's two evaluation points (§7, §8).
func oc768(b, lookahead int) Config {
	return Config{Q: 128, B: 8, Bsmall: b, M: 256, Lookahead: lookahead}
}

func oc3072(b, lookahead int) Config {
	return Config{Q: 512, B: 32, Bsmall: b, M: 256, Lookahead: lookahead}
}

func TestValidate(t *testing.T) {
	tests := []struct {
		name string
		cfg  Config
		ok   bool
	}{
		{"oc3072 b=8", oc3072(8, 100), true},
		{"rads", oc3072(32, 100), true},
		{"zero Q", Config{Q: 0, B: 8, Bsmall: 8, M: 256}, false},
		{"zero B", Config{Q: 1, B: 0, Bsmall: 1, M: 256}, false},
		{"zero b", Config{Q: 1, B: 8, Bsmall: 0, M: 256}, false},
		{"b exceeds B", Config{Q: 1, B: 8, Bsmall: 16, M: 256}, false},
		{"b not divisor", Config{Q: 1, B: 8, Bsmall: 3, M: 256}, false},
		{"zero M", Config{Q: 1, B: 8, Bsmall: 8, M: 0}, false},
		{"group mismatch", Config{Q: 1, B: 8, Bsmall: 1, M: 12}, false},
		{"negative lookahead", Config{Q: 1, B: 8, Bsmall: 8, M: 256, Lookahead: -1}, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.cfg.Validate()
			if (err == nil) != tt.ok {
				t.Errorf("Validate() = %v, want ok=%v", err, tt.ok)
			}
		})
	}
}

func TestGroupStructure(t *testing.T) {
	c := oc3072(8, 0)
	if got := c.BanksPerGroup(); got != 4 {
		t.Errorf("BanksPerGroup = %d, want 4", got)
	}
	if got := c.Groups(); got != 64 {
		t.Errorf("Groups = %d, want 64", got)
	}
	if got := c.QueuesPerGroup(); got != 8 {
		t.Errorf("QueuesPerGroup = %d, want 8", got)
	}
}

func TestFullLookahead(t *testing.T) {
	// §3: ECQF needs lookahead Q(B-1)+1.
	if got := FullLookahead(512, 32); got != 512*31+1 {
		t.Errorf("FullLookahead(512,32) = %d", got)
	}
	if got := FullLookahead(10, 1); got != 1 {
		t.Errorf("FullLookahead(10,1) = %d, want 1", got)
	}
}

func TestRADSSRAMSizeFullLookahead(t *testing.T) {
	// §3: minimum SRAM with ECQF is Q(B-1).
	if got := RADSSRAMSize(512, FullLookahead(512, 32), 32); got != 512*31 {
		t.Errorf("full-lookahead size = %d, want %d", got, 512*31)
	}
	// Beyond-full lookahead changes nothing.
	if got := RADSSRAMSize(512, 10*FullLookahead(512, 32), 32); got != 512*31 {
		t.Errorf("over-full lookahead size = %d", got)
	}
}

func TestRADSSRAMSizePaperAnchors(t *testing.T) {
	// §7.2: OC-3072 SRAM ranges 6.2 MB (min lookahead) to 1.0 MB (max);
	// OC-768 ranges 300 kB to 64 kB. Check within 15%.
	approx := func(gotCells int, wantBytes float64) bool {
		got := float64(gotCells * cell.Size)
		return math.Abs(got-wantBytes)/wantBytes < 0.15
	}
	if got := RADSSRAMSize(512, FullLookahead(512, 32), 32); !approx(got, 1.0e6) {
		t.Errorf("OC-3072 max-lookahead = %d cells (%.2f MB), want ~1.0 MB", got, float64(got*64)/1e6)
	}
	if got := RADSSRAMSize(512, 32, 32); !approx(got, 6.2e6) {
		t.Errorf("OC-3072 min-lookahead = %d cells (%.2f MB), want ~6.2 MB", got, float64(got*64)/1e6)
	}
	if got := RADSSRAMSize(128, FullLookahead(128, 8), 8); !approx(got, 64e3) {
		t.Errorf("OC-768 max-lookahead = %d cells (%.1f kB), want ~64 kB", got, float64(got*64)/1e3)
	}
	if got := RADSSRAMSize(128, 8, 8); !approx(got, 300e3) {
		t.Errorf("OC-768 min-lookahead = %d cells (%.1f kB), want ~300 kB", got, float64(got*64)/1e3)
	}
}

func TestRADSSRAMSizeMonotone(t *testing.T) {
	// Property: size is non-increasing in lookahead, non-decreasing in
	// Q and b.
	f := func(q8 uint8, lRaw uint16, bExp uint8) bool {
		q := int(q8)%100 + 1
		b := 1 << (int(bExp) % 6) // 1..32
		l := int(lRaw) % (FullLookahead(q, b) + 10)
		s := RADSSRAMSize(q, l, b)
		if s < 0 {
			return false
		}
		if RADSSRAMSize(q, l+1, b) > s {
			return false
		}
		if RADSSRAMSize(q+1, l, b) < s {
			return false
		}
		if b < 32 && RADSSRAMSize(q, l, b*2) < s {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRADSSRAMSizeDegenerate(t *testing.T) {
	if got := RADSSRAMSize(0, 10, 8); got != 0 {
		t.Errorf("q=0 size = %d", got)
	}
	if got := RADSSRAMSize(10, 10, 0); got != 0 {
		t.Errorf("b=0 size = %d", got)
	}
	// b=1: no batching slack at full lookahead.
	if got := RADSSRAMSize(100, FullLookahead(100, 1), 1); got != 0 {
		t.Errorf("b=1 full-lookahead size = %d, want 0", got)
	}
}

func TestRRSizeTable2(t *testing.T) {
	// Table 2, OC-3072 row (Q=512, B=32, M=256). The b=1..8 columns
	// follow R = ⌈2Q/G⌉·(B/b) exactly; the printed b=16 and b=32
	// cells (8 and 0) reflect the same bound with the degenerate
	// no-overlap case — we reproduce 0 at b=32 (B/b=1); at b=16 the
	// formula gives 16, not the printed 8, and this test checks 16.
	want := map[int]int{1: 4096, 2: 1024, 4: 256, 8: 64, 16: 16, 32: 0}
	for b, r := range want {
		if got := oc3072(b, 0).RRSize(); got != r {
			t.Errorf("OC-3072 b=%d: RRSize = %d, want %d", b, got, r)
		}
	}
	// OC-768 row (Q=128, B=8, M=256).
	want768 := map[int]int{1: 64, 2: 16, 4: 4, 8: 0}
	for b, r := range want768 {
		if got := oc768(b, 0).RRSize(); got != r {
			t.Errorf("OC-768 b=%d: RRSize = %d, want %d", b, got, r)
		}
	}
}

func TestSchedulingTimeTable2(t *testing.T) {
	// Table 2: sched time = b × slot time; "-" (0) when RR empty.
	tests := []struct {
		cfg  Config
		rate cell.LineRate
		want float64
	}{
		{oc3072(16, 0), cell.OC3072, 51.2},
		{oc3072(8, 0), cell.OC3072, 25.6},
		{oc3072(4, 0), cell.OC3072, 12.8},
		{oc3072(2, 0), cell.OC3072, 6.4},
		{oc3072(1, 0), cell.OC3072, 3.2},
		{oc3072(32, 0), cell.OC3072, 0},
		{oc768(4, 0), cell.OC768, 51.2},
		{oc768(2, 0), cell.OC768, 25.6},
		{oc768(1, 0), cell.OC768, 12.8},
		{oc768(8, 0), cell.OC768, 0},
	}
	for _, tt := range tests {
		if got := tt.cfg.SchedulingTimeNS(tt.rate); math.Abs(got-tt.want) > 1e-9 {
			t.Errorf("b=%d: sched time = %v, want %v", tt.cfg.Bsmall, got, tt.want)
		}
	}
}

func TestMaxSkipsBounds(t *testing.T) {
	// Dmax = (⌈2Q/G⌉−1)(B/b); zero in the RADS case.
	c := oc3072(8, 0)
	// G=64, 2Q/G=16, B/b=4 → 15*4=60.
	if got := c.MaxSkips(); got != 60 {
		t.Errorf("MaxSkips = %d, want 60", got)
	}
	if got := oc3072(32, 0).MaxSkips(); got != 0 {
		t.Errorf("RADS MaxSkips = %d, want 0", got)
	}
}

func TestMaxSkipsSingleQueueTwoStreams(t *testing.T) {
	// Even a single queue contributes two streams (read + write) to
	// its group, so one stream can overtake the other: Dmax = (2−1)·2.
	c := Config{Q: 1, B: 8, Bsmall: 4, M: 16}
	if got := c.StreamsPerGroup(); got != 2 {
		t.Errorf("StreamsPerGroup = %d, want 2", got)
	}
	if got := c.MaxSkips(); got != 2 {
		t.Errorf("MaxSkips = %d, want 2", got)
	}
}

func TestLatencySlots(t *testing.T) {
	c := oc3072(8, 0)
	wantR, wantD := 64, 60
	want := (wantR-1)*8 + wantD*8 + 32
	if got := c.LatencySlots(); got != want {
		t.Errorf("LatencySlots = %d, want %d", got, want)
	}
	if got := oc3072(32, 0).LatencySlots(); got != 0 {
		t.Errorf("RADS LatencySlots = %d, want 0", got)
	}
}

func TestHeadSRAMSize(t *testing.T) {
	c := oc3072(8, FullLookahead(512, 8))
	want := 512*7 + 60*8
	if got := c.HeadSRAMSize(); got != want {
		t.Errorf("HeadSRAMSize = %d, want %d", got, want)
	}
	// RADS case reduces to rads_sram_size.
	r := oc3072(32, FullLookahead(512, 32))
	if got := r.HeadSRAMSize(); got != 512*31 {
		t.Errorf("RADS HeadSRAMSize = %d, want %d", got, 512*31)
	}
}

func TestCFDSBeatsRADSOnSRAM(t *testing.T) {
	// The paper's headline: CFDS reduces SRAM size by about an order
	// of magnitude at the optimum b. Compare totals at full lookahead.
	rads := oc3072(32, FullLookahead(512, 32))
	cfds := oc3072(4, FullLookahead(512, 4))
	if cfds.TotalSRAMBytes()*4 >= rads.TotalSRAMBytes() {
		t.Errorf("CFDS b=4 total=%d B not <1/4 of RADS total=%d B",
			cfds.TotalSRAMBytes(), rads.TotalSRAMBytes())
	}
}

func TestDelayAccounting(t *testing.T) {
	c := oc3072(8, 1000)
	if got := c.DelaySlots(); got != 1000+c.LatencySlots() {
		t.Errorf("DelaySlots = %d", got)
	}
	sec := c.DelaySeconds(cell.OC3072)
	want := float64(c.DelaySlots()) * 3.2e-9
	if math.Abs(sec-want) > 1e-15 {
		t.Errorf("DelaySeconds = %v, want %v", sec, want)
	}
}

func TestIsRADS(t *testing.T) {
	if !oc3072(32, 0).IsRADS() {
		t.Error("b=B should be RADS")
	}
	if oc3072(16, 0).IsRADS() {
		t.Error("b<B should not be RADS")
	}
}

func TestRRSizePropertyNonNegativeAndMonotone(t *testing.T) {
	// Property: RRSize and MaxSkips are non-negative, RRSize > MaxSkips
	// whenever both are nonzero, and halving b never shrinks the RR.
	f := func(qRaw uint16, bExp, mExp uint8) bool {
		q := int(qRaw)%2048 + 1
		bigB := 32
		b := 1 << (int(bExp) % 6)
		m := bigB << (int(mExp) % 5) // keep M divisible by B/b
		c := Config{Q: q, B: bigB, Bsmall: b, M: m}
		if c.Validate() != nil {
			return true // skip invalid combinations
		}
		r, d := c.RRSize(), c.MaxSkips()
		if r < 0 || d < 0 {
			return false
		}
		if r > 0 && d >= r {
			return false
		}
		if b > 1 {
			half := Config{Q: q, B: bigB, Bsmall: b / 2, M: m}
			if half.Validate() == nil && half.RRSize() < r {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
