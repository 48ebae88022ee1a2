package experiments

import (
	"math"
	"strings"
	"testing"

	"repro/internal/cell"
)

func TestFigure8Shapes(t *testing.T) {
	figs := Figure8()
	if len(figs) != 2 {
		t.Fatalf("got %d panels, want 2", len(figs))
	}
	for _, f := range figs {
		if len(f.Rows) < 5 {
			t.Fatalf("%v: only %d rows", f.Point.Rate, len(f.Rows))
		}
		for i := 1; i < len(f.Rows); i++ {
			prev, cur := f.Rows[i-1], f.Rows[i]
			if cur.Lookahead <= prev.Lookahead {
				t.Errorf("%v: lookahead not increasing", f.Point.Rate)
			}
			if cur.SRAMCells > prev.SRAMCells {
				t.Errorf("%v: SRAM grew with lookahead", f.Point.Rate)
			}
			if cur.CAM.AccessNS > prev.CAM.AccessNS+1e-9 {
				t.Errorf("%v: CAM access grew with lookahead", f.Point.Rate)
			}
		}
		for _, r := range f.Rows {
			if r.LL.AccessNS <= r.CAM.AccessNS {
				t.Errorf("%v: LL faster than CAM at L=%d", f.Point.Rate, r.Lookahead)
			}
			if r.LL.AreaCM2 >= r.CAM.AreaCM2 {
				t.Errorf("%v: LL larger than CAM at L=%d", f.Point.Rate, r.Lookahead)
			}
		}
	}
}

func TestFigure8PaperClaims(t *testing.T) {
	figs := Figure8()
	// OC-768: every point of both orgs meets 12.8 ns (§7.2 "RADS is an
	// ideal way of providing fast packet buffering for OC-768").
	for _, r := range figs[0].Rows {
		if r.CAM.AccessNS > 12.8 || r.LL.AccessNS > 12.8 {
			t.Errorf("OC-768 L=%d: CAM %.2f / LL %.2f exceed 12.8 ns",
				r.Lookahead, r.CAM.AccessNS, r.LL.AccessNS)
		}
	}
	// OC-3072: no point of either org meets 3.2 ns.
	for _, r := range figs[1].Rows {
		if r.CAM.AccessNS <= 3.2 || r.LL.AccessNS <= 3.2 {
			t.Errorf("OC-3072 L=%d: CAM %.2f / LL %.2f meet 3.2 ns (RADS must fail)",
				r.Lookahead, r.CAM.AccessNS, r.LL.AccessNS)
		}
	}
}

func TestSection7Sizes(t *testing.T) {
	within := func(cells int, wantBytes float64) bool {
		return math.Abs(float64(cells*cell.Size)-wantBytes)/wantBytes < 0.15
	}
	sizes := Section7Sizes()
	if !within(sizes[0].MinLookaheadCells, 300e3) || !within(sizes[0].FullLookaheadCells, 64e3) {
		t.Errorf("OC-768 sizes = %d / %d cells, want ≈300 kB / 64 kB",
			sizes[0].MinLookaheadCells, sizes[0].FullLookaheadCells)
	}
	if !within(sizes[1].MinLookaheadCells, 6.2e6) || !within(sizes[1].FullLookaheadCells, 1.0e6) {
		t.Errorf("OC-3072 sizes = %d / %d cells, want ≈6.2 MB / 1.0 MB",
			sizes[1].MinLookaheadCells, sizes[1].FullLookaheadCells)
	}
}

func TestTable2MatchesPaper(t *testing.T) {
	panels := Table2()
	if len(panels) != 2 {
		t.Fatal("want 2 panels")
	}
	// OC-768 row: b = 8,4,2,1 → RR 0, 4, 16, 64 (paper prints 0,2,16,64;
	// equation (1) gives 4 at b=4, so that cell is left unchecked),
	// sched - ,51.2, 25.6, 12.8.
	oc768 := map[int]Table2Row{}
	for _, r := range panels[0].Rows {
		oc768[r.Bsmall] = r
	}
	if oc768[8].RRSize != 0 || oc768[2].RRSize != 16 || oc768[1].RRSize != 64 {
		t.Errorf("OC-768 RR sizes: %+v", panels[0].Rows)
	}
	if oc768[8].SchedNS != 0 || math.Abs(oc768[1].SchedNS-12.8) > 1e-9 {
		t.Errorf("OC-768 sched times: %+v", panels[0].Rows)
	}
	// OC-3072 row: b=32..1 → 0, 16, 64, 256, 1024, 4096 (paper prints 8
	// at b=16; delta recorded).
	oc3072 := map[int]Table2Row{}
	for _, r := range panels[1].Rows {
		oc3072[r.Bsmall] = r
	}
	want := map[int]int{32: 0, 8: 64, 4: 256, 2: 1024, 1: 4096}
	for b, rr := range want {
		if oc3072[b].RRSize != rr {
			t.Errorf("OC-3072 b=%d RR = %d, want %d", b, oc3072[b].RRSize, rr)
		}
	}
	if math.Abs(oc3072[1].SchedNS-3.2) > 1e-9 || math.Abs(oc3072[16].SchedNS-51.2) > 1e-9 {
		t.Errorf("OC-3072 sched times: %+v", panels[1].Rows)
	}
}

func TestFigure10Shapes(t *testing.T) {
	series := Figure10()
	if len(series) != 6 {
		t.Fatalf("got %d series", len(series))
	}
	byB := map[int]Fig10Series{}
	for _, s := range series {
		byB[s.Bsmall] = s
		if s.IsRADS != (s.Bsmall == 32) {
			t.Errorf("b=%d IsRADS=%v", s.Bsmall, s.IsRADS)
		}
	}
	// CFDS b=2 must meet the 3.2 ns budget at full lookahead; RADS must
	// not (the paper's central comparison).
	last := func(b int) Fig10Row { s := byB[b]; return s.Rows[len(s.Rows)-1] }
	if last(2).AccessCAM > 3.2 {
		t.Errorf("CFDS b=2 access %.2f ns > 3.2", last(2).AccessCAM)
	}
	if last(32).AccessCAM <= 3.2 {
		t.Errorf("RADS access %.2f ns ≤ 3.2", last(32).AccessCAM)
	}
	// RADS delay > 50 µs at full lookahead; CFDS b=2 delay around
	// 10-20 µs ("modest lookahead delay (10 µs)").
	if d := last(32).DelaySeconds; d < 50e-6 {
		t.Errorf("RADS delay %.1f µs, want > 50 µs", d*1e6)
	}
	if d := last(2).DelaySeconds; d > 25e-6 {
		t.Errorf("CFDS b=2 delay %.1f µs, want ≲ 20 µs", d*1e6)
	}
	// Area advantage: CFDS b=2 total area well below RADS (paper: ~0.6
	// vs ~2 cm²).
	if last(2).AreaCAM*2 > last(32).AreaCAM {
		t.Errorf("CFDS area %.2f not < half of RADS %.2f", last(2).AreaCAM, last(32).AreaCAM)
	}
}

func TestFigure10OptimalInteriorB(t *testing.T) {
	// §8.3's second conclusion: there is an optimal b strictly between
	// 1 and 32 — the access time at full lookahead is minimized at an
	// interior granularity.
	series := Figure10()
	best, bestB := math.Inf(1), 0
	for _, s := range series {
		r := s.Rows[len(s.Rows)-1]
		if r.AccessCAM < best {
			best, bestB = r.AccessCAM, s.Bsmall
		}
	}
	if bestB == 1 || bestB == 32 {
		t.Errorf("optimal b = %d, want interior (trade-off of §8.3)", bestB)
	}
}

func TestFigure11PaperClaims(t *testing.T) {
	rows := Figure11()
	byB := map[int]int{}
	rads := 0
	for _, r := range rows {
		byB[r.Bsmall] = r.MaxQueue
		if r.IsRADS {
			rads = r.MaxQueue
		}
	}
	if rads < 100 || rads > 200 {
		t.Errorf("RADS max queues = %d, want ≈140", rads)
	}
	peak := 0
	for _, q := range byB {
		if q > peak {
			peak = q
		}
	}
	// Paper: "CFDS allows 6 times more queues ... (up to 850 queues)".
	if peak < 700 || peak > 1000 {
		t.Errorf("CFDS peak max queues = %d, want ≈850", peak)
	}
	if ratio := float64(peak) / float64(rads); ratio < 5 || ratio > 8 {
		t.Errorf("CFDS/RADS ratio = %.1f, want ≈6", ratio)
	}
	// The paper's Figure 11 shows ≥512 queues feasible for mid-range b
	// (its own evaluation uses Q=512 with b=2..8).
	for _, b := range []int{2, 4} {
		if byB[b] < 512 {
			t.Errorf("b=%d supports only %d queues, want ≥512", b, byB[b])
		}
	}
}

func TestHeadline(t *testing.T) {
	h := Headline()
	if h.RADS.AccessCAM <= h.CFDS.AccessCAM {
		t.Errorf("RADS access %.2f not worse than CFDS %.2f", h.RADS.AccessCAM, h.CFDS.AccessCAM)
	}
	if h.RADS.AreaCAM <= h.CFDS.AreaCAM {
		t.Errorf("RADS area %.2f not larger than CFDS %.2f", h.RADS.AreaCAM, h.CFDS.AreaCAM)
	}
	// §10: RADS ≈ 7 ns and ≈ 2 cm²; CFDS < 3.2 ns.
	if math.Abs(h.RADS.AccessCAM-7.0) > 1.5 {
		t.Errorf("RADS access %.2f ns, want ≈7", h.RADS.AccessCAM)
	}
	if math.Abs(h.RADS.AreaCAM-2.0) > 0.8 {
		t.Errorf("RADS area %.2f cm², want ≈2", h.RADS.AreaCAM)
	}
}

func TestTableStringsNonEmpty(t *testing.T) {
	for _, f := range Figure8() {
		if !strings.Contains(f.TableString(), "Figure 8") {
			t.Error("Fig8 TableString malformed")
		}
	}
	for _, p := range Table2() {
		s := p.TableString()
		if !strings.Contains(s, "Table 2") || !strings.Contains(s, "-") {
			t.Error("Table2 TableString malformed")
		}
	}
	for _, s := range Figure10() {
		if !strings.Contains(s.TableString(), "Figure 10") {
			t.Error("Fig10 TableString malformed")
		}
	}
	if !strings.Contains(Fig11TableString(Figure11()), "RADS baseline") {
		t.Error("Fig11 TableString malformed")
	}
	if !strings.Contains(HeadlineString(Headline()), "CFDS b=2") {
		t.Error("Headline string malformed")
	}
}
