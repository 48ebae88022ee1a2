// Package dimension implements the paper's dimensioning formulas: the
// RADS SRAM size / lookahead trade-off of [13], and the CFDS register
// and latency bounds of §5 (equations (1)-(4)).
//
// The formulas are the analytic counterpart of the slot-accurate
// simulator in internal/core: the simulator's property tests check
// that observed occupancies, skip counts and delays never exceed the
// bounds computed here.
package dimension

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/cell"
)

// Config carries the parameters of Table 1 (the RADS/CFDS legend).
type Config struct {
	// Q is the number of Virtual Output Queues the buffer serves.
	// With renaming enabled this is the number of *physical* queues
	// (the paper oversubscribes physical queues by a factor A; all
	// dimensioning uses the physical count).
	Q int
	// B is the RADS granularity: the DRAM random access time measured
	// in time slots. Transfers in RADS move B cells every B slots.
	B int
	// Bsmall is the CFDS granularity b (b ≤ B). CFDS transfers move b
	// cells every b slots; B/b accesses are overlapped across the
	// banks of a group.
	Bsmall int
	// M is the number of DRAM banks.
	M int
	// Lookahead is the MMA lookahead shift-register size L in slots.
	Lookahead int
}

// Validate reports whether the configuration is internally consistent.
func (c Config) Validate() error {
	switch {
	case c.Q <= 0:
		return fmt.Errorf("dimension: Q must be positive, got %d", c.Q)
	case c.B <= 0:
		return fmt.Errorf("dimension: B must be positive, got %d", c.B)
	case c.Bsmall <= 0:
		return fmt.Errorf("dimension: b must be positive, got %d", c.Bsmall)
	case c.Bsmall > c.B:
		return fmt.Errorf("dimension: b=%d must not exceed B=%d", c.Bsmall, c.B)
	case c.B%c.Bsmall != 0:
		return fmt.Errorf("dimension: b=%d must divide B=%d", c.Bsmall, c.B)
	case c.M <= 0:
		return fmt.Errorf("dimension: M must be positive, got %d", c.M)
	case c.M%(c.B/c.Bsmall) != 0:
		return fmt.Errorf("dimension: banks per group B/b=%d must divide M=%d", c.B/c.Bsmall, c.M)
	case c.Lookahead < 0:
		return fmt.Errorf("dimension: lookahead must be non-negative, got %d", c.Lookahead)
	}
	return nil
}

// BanksPerGroup returns B/b, the number of banks in each group (§5.1).
func (c Config) BanksPerGroup() int { return c.B / c.Bsmall }

// Groups returns G = M/(B/b), the number of bank groups (§5.1).
func (c Config) Groups() int { return c.M / c.BanksPerGroup() }

// QueuesPerGroup returns ⌈Q/G⌉, the number of queues statically
// assigned to each bank group (§5.1).
func (c Config) QueuesPerGroup() int {
	g := c.Groups()
	return (c.Q + g - 1) / g
}

// FullLookahead returns L* = Q(b−1)+1, the lookahead at which ECQF
// achieves its minimum SRAM size (§3). For b = 1 the MMA needs no
// batching slack and one slot of lookahead suffices.
func FullLookahead(q, b int) int { return q*(b-1) + 1 }

// ecqfSlackFactor calibrates the sub-full-lookahead growth of the
// RADS SRAM size against the paper's §7.2 anchor numbers (300 kB →
// 64 kB for OC-768; 6.2 MB → 1.0 MB for OC-3072), which
// TestRADSSRAMSizePaperAnchors pins within 15 %.
const ecqfSlackFactor = 0.8

// RADSSRAMSize returns rads_sram_size(Q, L, b): the head-SRAM size in
// cells needed for a zero-miss guarantee with Q queues, granularity b
// and lookahead L (the function the paper imports from [13]).
//
// At full lookahead L ≥ L* = Q(b−1)+1 the ECQF bound Q(b−1) applies.
// For shorter lookaheads the requirement grows as
// Q·b·0.8·ln(L*/L); the constant is calibrated to the paper's §7.2
// endpoints (ecqfSlackFactor). L is clamped below at b (the MMA cannot
// act on less than one batch of pending requests).
func RADSSRAMSize(q, lookahead, b int) int {
	if q <= 0 || b <= 0 {
		return 0
	}
	base := q * (b - 1)
	full := FullLookahead(q, b)
	if lookahead >= full {
		return base
	}
	l := lookahead
	if l < b {
		l = b
	}
	extra := ecqfSlackFactor * float64(q) * float64(b) * math.Log(float64(full)/float64(l))
	return base + int(math.Ceil(extra))
}

// StreamsPerGroup returns 2·⌈Q/G⌉: every queue contributes one read
// and one write request stream to its statically assigned group. (For
// Q ≥ G this equals the paper's 2Q/G; for sparse configurations the
// two streams of a single queue still share the group's banks, so the
// factor 2 must survive the ceiling.)
func (c Config) StreamsPerGroup() int {
	g := c.Groups()
	return 2 * ((c.Q + g - 1) / g)
}

// RRSize returns R, the Requests Register size of equation (1):
//
//	R = 2⌈Q/G⌉ · (B/b)
//
// Within one group at most 2⌈Q/G⌉ request streams (a read and a write
// stream per resident queue) can target the same bank before the
// round-robin interleave moves them on, and each access occupies the
// bank for B/b DSA cycles, so at most B/b requests accumulate behind
// each. When B/b = 1 an access completes before the next decision and
// no reordering is ever needed, so R = 0 (RADS degenerate case).
func (c Config) RRSize() int {
	bpg := c.BanksPerGroup()
	if bpg <= 1 {
		return 0
	}
	return c.StreamsPerGroup() * bpg
}

// MaxSkips returns Dmax, equation (2): the maximum number of times the
// DSA can skip over a pending request.
//
//	Dmax = (2⌈Q/G⌉ − 1) · (B/b)
//
// While a request waits for its locked bank, each of the other
// 2⌈Q/G⌉−1 streams mapped to the group can overtake it at most B/b
// times (once per cycle of the bank's busy window).
func (c Config) MaxSkips() int {
	bpg := c.BanksPerGroup()
	if bpg <= 1 {
		return 0
	}
	streams := c.StreamsPerGroup()
	if streams <= 1 {
		return 0
	}
	return (streams - 1) * bpg
}

// LatencySlots returns Λ, equation (3): the size of the latency shift
// register in slots — the maximum delay a replenish request can
// suffer in the DSS before its cells are resident in SRAM.
//
//	Λ = (R−1)·b + Dmax·b + B
//
// (R−1)·b slots to drain ahead of it in FIFO order, Dmax·b slots of
// skip delay, plus the B-slot DRAM access itself. Zero for the RADS
// degenerate case (the MMA already accounts for the in-flight access).
func (c Config) LatencySlots() int { return c.LatencySlotsBudget(1) }

// LatencySlotsBudget generalizes equation (3) to a DSA that issues up
// to budget requests per cycle (the implementation issues 2 — one
// read and one write block per b slots, matching the 2× line-rate
// buffer bandwidth). Each lock window of a waiting request's bank now
// admits budget overtakes per cycle, scaling the skip term:
//
//	Λ(β) = (R−1)·b + β·Dmax·b + B
func (c Config) LatencySlotsBudget(budget int) int {
	r := c.RRSize()
	if r == 0 {
		return 0
	}
	if budget < 1 {
		budget = 1
	}
	return (r-1)*c.Bsmall + budget*c.MaxSkips()*c.Bsmall + c.B
}

// HeadSRAMSize returns equation (4): the head SRAM size in cells for a
// CFDS configuration — the MMA requirement plus the reorder slack.
//
//	SRAM = rads_sram_size(Q, L, b) + Dmax·b
func (c Config) HeadSRAMSize() int {
	return RADSSRAMSize(c.Q, c.Lookahead, c.Bsmall) + c.MaxSkips()*c.Bsmall
}

// TailSRAMSize returns the tail SRAM size in cells. The t-MMA bound is
// Q(b−1)+1 (§3); CFDS adds the same reorder slack as the head side,
// because written cells stay resident until the DSS issues them. (The
// simulator's configuration adds further engineering slack on top —
// staging residency and MMA phase — see core.Config.ApplyDefaults.)
func (c Config) TailSRAMSize() int {
	base := c.Q*(c.Bsmall-1) + 1
	return base + c.MaxSkips()*c.Bsmall
}

// TotalSRAMBytes returns the combined head+tail SRAM size in bytes
// (the quantity plotted in Figure 10's area panel).
func (c Config) TotalSRAMBytes() int {
	return (c.HeadSRAMSize() + c.TailSRAMSize()) * cell.Size
}

// DelaySlots returns the total request-to-delivery pipeline length in
// slots: the MMA lookahead plus the DSS latency register (the x-axis
// of Figure 10).
func (c Config) DelaySlots() int { return c.Lookahead + c.LatencySlots() }

// DelaySeconds converts DelaySlots to seconds at the given line rate.
func (c Config) DelaySeconds(rate cell.LineRate) float64 {
	return float64(c.DelaySlots()) * rate.SlotTimeNS() * 1e-9
}

// SchedulingTimeNS returns the time available to the RR selection
// logic to schedule one request: one DSA cycle, i.e. b slots (the
// quantity in Table 2's "Sched. time" rows). Returns 0 when the RR is
// degenerate (R = 0), shown as "-" in the paper.
func (c Config) SchedulingTimeNS(rate cell.LineRate) float64 {
	if c.RRSize() == 0 {
		return 0
	}
	return float64(c.Bsmall) * rate.SlotTimeNS()
}

// ErrInfeasible is returned by search helpers when no configuration
// satisfies the constraint.
var ErrInfeasible = errors.New("dimension: no feasible configuration")

// IsRADS reports whether the configuration degenerates to the RADS
// baseline (b = B: one bank group access at a time, no reordering).
func (c Config) IsRADS() bool { return c.Bsmall == c.B }
