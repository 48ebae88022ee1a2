// Package experiments regenerates every table and figure of the
// paper's evaluation (§7 and §8) from the dimensioning formulas
// (internal/dimension) and the technology model (internal/cacti).
// Each generator returns a plain data structure plus a TableString
// rendering; cmd/paperrepro prints them and the repository benchmarks
// time them. experiments_test.go pins the generated values against
// the paper's printed ones and names each cell that differs.
package experiments

import (
	"fmt"
	"strings"

	"repro/internal/cacti"
	"repro/internal/cell"
	"repro/internal/dimension"
)

// Point groups the two evaluation configurations used throughout §7
// and §8 (Q=128, B=8 at OC-768; Q=512, B=32 at OC-3072, M=256 banks).
type Point struct {
	Rate  cell.LineRate
	Q, B  int
	Banks int
}

// OC768 and OC3072 are the paper's two technology evaluation points.
var (
	OC768  = Point{Rate: cell.OC768, Q: 128, B: 8, Banks: 256}
	OC3072 = Point{Rate: cell.OC3072, Q: 512, B: 32, Banks: 256}
)

// config builds the dimension.Config for granularity b and lookahead l.
func (p Point) config(b, l int) dimension.Config {
	return dimension.Config{Q: p.Q, B: p.B, Bsmall: b, M: p.Banks, Lookahead: l}
}

// lookaheadSweep returns an increasing grid of lookahead values from
// one block to the ECQF full lookahead.
func lookaheadSweep(q, b, points int) []int {
	full := dimension.FullLookahead(q, b)
	if points < 2 || full <= b {
		return []int{full}
	}
	out := make([]int, 0, points)
	for i := 0; i < points; i++ {
		l := b + (full-b)*i/(points-1)
		if len(out) == 0 || l > out[len(out)-1] {
			out = append(out, l)
		}
	}
	return out
}

// ---------------------------------------------------------------- Fig 8

// Fig8Row is one lookahead sample of Figure 8: the RADS h-SRAM size
// and the two organizations' cost.
type Fig8Row struct {
	Lookahead int
	SRAMCells int
	CAM, LL   cacti.Estimate
}

// Fig8 is one panel pair (access time + area) of Figure 8.
type Fig8 struct {
	Point Point
	Rows  []Fig8Row
}

// Figure8 reproduces Figure 8: RADS h-SRAM access time and area as a
// function of the lookahead, for OC-768 (Q=128, B=8) and OC-3072
// (Q=512, B=32), global CAM vs unified linked list.
func Figure8() []Fig8 {
	var out []Fig8
	for _, p := range []Point{OC768, OC3072} {
		f := Fig8{Point: p}
		for _, l := range lookaheadSweep(p.Q, p.B, 12) {
			cells := dimension.RADSSRAMSize(p.Q, l, p.B)
			f.Rows = append(f.Rows, Fig8Row{
				Lookahead: l,
				SRAMCells: cells,
				CAM:       cacti.ForCells(cacti.OrgCAM, cells),
				LL:        cacti.ForCells(cacti.OrgLinkedList, cells),
			})
		}
		out = append(out, f)
	}
	return out
}

// TableString renders the panel as the paper's series.
func (f Fig8) TableString() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 8 — %s (Q=%d, B=%d): RADS h-SRAM vs lookahead\n",
		f.Point.Rate, f.Point.Q, f.Point.B)
	fmt.Fprintf(&b, "%10s %10s %10s %12s %12s %12s %12s\n",
		"lookahead", "cells", "kB", "CAM ns", "LL ns", "CAM cm2", "LL cm2")
	for _, r := range f.Rows {
		fmt.Fprintf(&b, "%10d %10d %10.1f %12.2f %12.2f %12.3f %12.3f\n",
			r.Lookahead, r.SRAMCells, float64(r.SRAMCells*cell.Size)/1e3,
			r.CAM.AccessNS, r.LL.AccessNS, r.CAM.AreaCM2, r.LL.AreaCM2)
	}
	fmt.Fprintf(&b, "budget: %.1f ns per cell\n", f.Point.Rate.AccessBudgetNS())
	return b.String()
}

// ---------------------------------------------------------------- Table 2

// Table2Row is one granularity column of Table 2.
type Table2Row struct {
	Bsmall  int
	RRSize  int
	SchedNS float64 // 0 renders as "-" (degenerate RR)
}

// Table2Panel is one line-rate row pair of Table 2.
type Table2Panel struct {
	Point Point
	Rows  []Table2Row
}

// Table2 reproduces Table 2: Requests Register size (equation (1))
// and the time available to schedule one request, per granularity.
func Table2() []Table2Panel {
	var out []Table2Panel
	for _, p := range []Point{OC768, OC3072} {
		panel := Table2Panel{Point: p}
		for _, b := range []int{32, 16, 8, 4, 2, 1} {
			if b > p.B {
				continue
			}
			c := p.config(b, 0)
			panel.Rows = append(panel.Rows, Table2Row{
				Bsmall:  b,
				RRSize:  c.RRSize(),
				SchedNS: c.SchedulingTimeNS(p.Rate),
			})
		}
		out = append(out, panel)
	}
	return out
}

// TableString renders the panel like the paper's Table 2.
func (t Table2Panel) TableString() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 2 — %s (Q=%d, B=%d, M=%d)\n", t.Point.Rate, t.Point.Q, t.Point.B, t.Point.Banks)
	fmt.Fprintf(&b, "%18s", "b")
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%9d", r.Bsmall)
	}
	fmt.Fprintf(&b, "\n%18s", "RR size")
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%9d", r.RRSize)
	}
	fmt.Fprintf(&b, "\n%18s", "sched. time (ns)")
	for _, r := range t.Rows {
		if r.SchedNS == 0 {
			fmt.Fprintf(&b, "%9s", "-")
		} else {
			fmt.Fprintf(&b, "%9.1f", r.SchedNS)
		}
	}
	b.WriteByte('\n')
	return b.String()
}

// ---------------------------------------------------------------- Fig 10

// Fig10Row is one lookahead sample of one granularity series.
type Fig10Row struct {
	Lookahead    int
	LatencySlots int
	DelaySeconds float64
	HeadCells    int
	TailCells    int
	// Access is the most restricting access time (the larger SRAM)
	// in the global CAM organization; AreaCAM / AreaLL are the
	// combined h+t areas.
	AccessCAM float64
	AreaCAM   float64
	AreaLL    float64
}

// Fig10Series is one granularity curve (b=32 is the RADS baseline).
type Fig10Series struct {
	Bsmall int
	IsRADS bool
	Rows   []Fig10Row
}

// Figure10 reproduces Figure 10: SRAM (h+t) area and most-restricting
// access time as a function of the total delay (lookahead + latency),
// at OC-3072 with Q=512, M=256, for b ∈ {32(RADS),16,8,4,2,1}.
func Figure10() []Fig10Series {
	p := OC3072
	var out []Fig10Series
	for _, b := range []int{32, 16, 8, 4, 2, 1} {
		s := Fig10Series{Bsmall: b, IsRADS: b == p.B}
		for _, l := range lookaheadSweep(p.Q, b, 10) {
			c := p.config(b, l)
			head := c.HeadSRAMSize()
			tail := c.TailSRAMSize()
			larger := head
			if tail > larger {
				larger = tail
			}
			s.Rows = append(s.Rows, Fig10Row{
				Lookahead:    l,
				LatencySlots: c.LatencySlots(),
				DelaySeconds: c.DelaySeconds(p.Rate),
				HeadCells:    head,
				TailCells:    tail,
				AccessCAM:    cacti.ForCells(cacti.OrgCAM, larger).AccessNS,
				AreaCAM:      cacti.ForCells(cacti.OrgCAM, head).AreaCM2 + cacti.ForCells(cacti.OrgCAM, tail).AreaCM2,
				AreaLL:       cacti.ForCells(cacti.OrgLinkedList, head).AreaCM2 + cacti.ForCells(cacti.OrgLinkedList, tail).AreaCM2,
			})
		}
		out = append(out, s)
	}
	return out
}

// TableString renders one series.
func (s Fig10Series) TableString() string {
	var b strings.Builder
	label := fmt.Sprintf("b=%d", s.Bsmall)
	if s.IsRADS {
		label += " (RADS)"
	}
	fmt.Fprintf(&b, "Figure 10 — OC-3072 series %s\n", label)
	fmt.Fprintf(&b, "%10s %10s %12s %10s %10s %12s %12s %12s\n",
		"lookahead", "latency", "delay(us)", "head", "tail", "CAM ns", "CAM cm2", "LL cm2")
	for _, r := range s.Rows {
		fmt.Fprintf(&b, "%10d %10d %12.2f %10d %10d %12.2f %12.3f %12.3f\n",
			r.Lookahead, r.LatencySlots, r.DelaySeconds*1e6,
			r.HeadCells, r.TailCells, r.AccessCAM, r.AreaCAM, r.AreaLL)
	}
	return b.String()
}

// ---------------------------------------------------------------- Fig 11

// Fig11Row is one bar of Figure 11.
type Fig11Row struct {
	Bsmall   int
	IsRADS   bool
	MaxQueue int
}

// Figure11 reproduces Figure 11: the maximum number of (physical)
// queues whose h/t-SRAM still meets the OC-3072 access budget
// (3.2 ns) in the global CAM organization, at full lookahead, per
// granularity. b=32 is the RADS bar.
func Figure11() []Fig11Row {
	p := OC3072
	var out []Fig11Row
	for _, b := range []int{32, 16, 8, 4, 2, 1} {
		out = append(out, Fig11Row{
			Bsmall:   b,
			IsRADS:   b == p.B,
			MaxQueue: maxQueues(p, b),
		})
	}
	return out
}

// maxQueues binary-searches the largest Q whose most-restricting SRAM
// meets the access budget.
func maxQueues(p Point, b int) int {
	feasible := func(q int) bool {
		c := dimension.Config{
			Q: q, B: p.B, Bsmall: b, M: p.Banks,
			Lookahead: dimension.FullLookahead(q, b),
		}
		cells := c.HeadSRAMSize()
		if t := c.TailSRAMSize(); t > cells {
			cells = t
		}
		return cacti.MeetsBudget(cacti.OrgCAM, cells, p.Rate)
	}
	lo, hi := 0, 1
	for feasible(hi) && hi < 1<<20 {
		hi *= 2
	}
	for lo < hi-1 {
		mid := (lo + hi) / 2
		if feasible(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// Fig11TableString renders the bar chart data.
func Fig11TableString(rows []Fig11Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 11 — OC-3072 max #queues under %.1f ns budget (CAM, full lookahead)\n",
		OC3072.Rate.AccessBudgetNS())
	fmt.Fprintf(&b, "%8s %12s\n", "b", "max queues")
	for _, r := range rows {
		label := fmt.Sprintf("%d", r.Bsmall)
		if r.IsRADS {
			label += "*"
		}
		fmt.Fprintf(&b, "%8s %12d\n", label, r.MaxQueue)
	}
	b.WriteString("(* = RADS baseline)\n")
	return b.String()
}

// ---------------------------------------------------------------- §7 / §8 headlines

// SizeRange is a paper-quoted SRAM size span.
type SizeRange struct {
	Point              Point
	MinLookaheadCells  int // size at the shortest lookahead
	FullLookaheadCells int // size at the ECQF full lookahead
}

// Section7Sizes reproduces the §7.2 text numbers: the RADS h-SRAM
// spans 300 kB → 64 kB at OC-768 and 6.2 MB → 1.0 MB at OC-3072.
func Section7Sizes() []SizeRange {
	var out []SizeRange
	for _, p := range []Point{OC768, OC3072} {
		out = append(out, SizeRange{
			Point:              p,
			MinLookaheadCells:  dimension.RADSSRAMSize(p.Q, p.B, p.B),
			FullLookaheadCells: dimension.RADSSRAMSize(p.Q, dimension.FullLookahead(p.Q, p.B), p.B),
		})
	}
	return out
}

// Headline compares the §8.3/§10 endpoints: RADS (b=32) vs CFDS (b=2)
// at OC-3072 and full lookahead.
type HeadlineResult struct {
	RADS, CFDS Fig10Row
}

// Headline returns the two headline operating points.
func Headline() HeadlineResult {
	series := Figure10()
	var res HeadlineResult
	for _, s := range series {
		last := s.Rows[len(s.Rows)-1]
		switch s.Bsmall {
		case 32:
			res.RADS = last
		case 2:
			res.CFDS = last
		}
	}
	return res
}

// HeadlineString renders the §10 comparison.
func HeadlineString(h HeadlineResult) string {
	var b strings.Builder
	b.WriteString("§8.3/§10 headline — OC-3072, full lookahead (CAM organization)\n")
	fmt.Fprintf(&b, "%8s %12s %12s %12s\n", "", "access ns", "delay us", "area cm2")
	fmt.Fprintf(&b, "%8s %12.2f %12.1f %12.2f\n", "RADS", h.RADS.AccessCAM, h.RADS.DelaySeconds*1e6, h.RADS.AreaCAM)
	fmt.Fprintf(&b, "%8s %12.2f %12.1f %12.2f\n", "CFDS b=2", h.CFDS.AccessCAM, h.CFDS.DelaySeconds*1e6, h.CFDS.AreaCAM)
	return b.String()
}
