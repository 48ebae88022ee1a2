package experiments

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/facade"
	"repro/pktbuf"
	"repro/pktbuf/sim"
)

// ValidationRow is one empirical check of the §5 worst-case claims:
// a full simulation run and the bounds it must respect.
type ValidationRow struct {
	// Name identifies the configuration/workload pair.
	Name string
	// Bsmall is the granularity; Renaming reports the §6 layer.
	Bsmall   int
	Renaming bool
	// Slots simulated and resulting stats.
	Slots uint64
	Stats core.Stats
	// SkipBound is the budget-scaled equation (2) limit; RRCap the
	// configured equation (1) register.
	SkipBound, RRCap int
	// HeadCap/TailCap are the dimensioned SRAM sizes.
	HeadCap, TailCap int
	// Pass reports that every invariant and bound held.
	Pass bool
}

// ValidateGuarantees runs the §5 guarantee checks across granularities
// and workloads on a Q-queue buffer for the given number of slots per
// cell. It is the simulation companion to the analytic figures: the
// paper proves the bounds, this measures them.
func ValidateGuarantees(queues int, slots uint64) ([]ValidationRow, error) {
	type workload struct {
		name string
		arr  func() (sim.ArrivalProcess, error)
		req  func() (sim.RequestPolicy, error)
	}
	workloads := []workload{
		{
			name: "rr-adversary",
			arr:  func() (sim.ArrivalProcess, error) { return sim.NewRoundRobinArrivals(queues, 1.0) },
			req:  func() (sim.RequestPolicy, error) { return sim.NewRoundRobinDrain(queues) },
		},
		{
			name: "hotspot",
			arr:  func() (sim.ArrivalProcess, error) { return sim.NewHotspotArrivals(queues, 1.0, 0.8, 7) },
			req:  func() (sim.RequestPolicy, error) { return sim.NewRoundRobinDrain(queues) },
		},
		{
			name: "bursty-longest",
			arr:  func() (sim.ArrivalProcess, error) { return sim.NewBurstyArrivals(queues, 24, 6, 3) },
			req:  func() (sim.RequestPolicy, error) { return sim.NewLongestFirst(queues) },
		},
	}
	var rows []ValidationRow
	for _, b := range []int{32, 8, 2} {
		for _, renaming := range []bool{false, true} {
			for _, w := range workloads {
				// OC-3072 is the B = 32 line rate.
				buf, err := pktbuf.New(pktbuf.Config{
					Queues: queues, LineRate: pktbuf.OC3072, Granularity: b,
					Banks: 256, Renaming: renaming,
				})
				if err != nil {
					return nil, err
				}
				arr, err := w.arr()
				if err != nil {
					return nil, err
				}
				req, err := w.req()
				if err != nil {
					return nil, err
				}
				warm := &sim.Runner{Buffer: buf, Arrivals: arr, Requests: sim.NewIdleRequests()}
				if _, err := warm.Run(uint64(queues * b * 6)); err != nil {
					return nil, fmt.Errorf("%s warmup: %w", w.name, err)
				}
				r := &sim.Runner{Buffer: buf, Arrivals: arr, Requests: req}
				res, err := r.Run(slots)
				if err != nil {
					return nil, fmt.Errorf("%s: %w", w.name, err)
				}
				inner := facade.CoreOf(buf)
				final := inner.Config()
				d := final.Dimension()
				stats := inner.Stats()
				row := ValidationRow{
					Name:      w.name,
					Bsmall:    b,
					Renaming:  renaming,
					Slots:     res.Slots,
					Stats:     stats,
					SkipBound: final.IssuesPerCycle * d.MaxSkips(),
					RRCap:     final.RRCapacity,
					HeadCap:   final.HeadSRAMCells,
					TailCap:   final.TailSRAMCells,
				}
				row.Pass = stats.Clean() &&
					stats.DSS.MaxSkips <= row.SkipBound &&
					stats.DSS.MaxOccupancy <= row.RRCap &&
					stats.HeadHighWater <= row.HeadCap &&
					stats.TailHighWater <= row.TailCap
				rows = append(rows, row)
			}
		}
	}
	return rows, nil
}

// ValidationTableString renders the matrix.
func ValidationTableString(rows []ValidationRow) string {
	var b strings.Builder
	b.WriteString("§5 guarantee validation (slot-accurate simulation)\n")
	fmt.Fprintf(&b, "%-16s %4s %7s %8s %8s %12s %10s %6s\n",
		"workload", "b", "rename", "misses", "skips", "headHW/cap", "rrHW/cap", "pass")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-16s %4d %7v %8d %5d/%-3d %6d/%-6d %4d/%-4d %6v\n",
			r.Name, r.Bsmall, r.Renaming, r.Stats.Misses,
			r.Stats.DSS.MaxSkips, r.SkipBound,
			r.Stats.HeadHighWater, r.HeadCap,
			r.Stats.DSS.MaxOccupancy, r.RRCap, r.Pass)
	}
	return b.String()
}
