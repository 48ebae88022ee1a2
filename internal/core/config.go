// Package core composes the substrates — DRAM banks, shared SRAM
// stores, MMAs, the DRAM Scheduler Subsystem and queue renaming —
// into the complete packet buffer of the paper: the CFDS architecture
// of Figure 5, with the RADS baseline of Figure 2/3 as the b = B
// degenerate configuration.
//
// The buffer is a slot-accurate simulator: the caller drives one Tick
// per time slot, presenting at most one arriving cell and one
// scheduler request, and receives at most one delivered cell. All the
// paper's worst-case claims are checked as runtime invariants: a head
// SRAM miss, a DRAM bank conflict, an overflowing Requests Register or
// SRAM all surface as errors, so tests can assert they never occur.
package core

import (
	"fmt"

	"repro/internal/dimension"
)

// SRAMOrg selects the shared-SRAM organization (§7.1).
type SRAMOrg int

// Organizations.
const (
	// OrgCAM is the global content-addressable memory (shortest
	// access time).
	OrgCAM SRAMOrg = iota
	// OrgLinkedList is the unified linked list, time-multiplexed
	// (smallest area).
	OrgLinkedList
)

// String implements fmt.Stringer.
func (o SRAMOrg) String() string {
	if o == OrgCAM {
		return "global-cam"
	}
	return "unified-linked-list"
}

// MMAKind selects the head Memory Management Algorithm.
type MMAKind int

// Algorithms.
const (
	// ECQF is Earliest Critical Queue First (the paper's h-MMA).
	ECQF MMAKind = iota
	// MDQF is the lookahead-free Most Deficit Queue First baseline.
	MDQF
)

// String implements fmt.Stringer.
func (m MMAKind) String() string {
	if m == ECQF {
		return "ecqf"
	}
	return "mdqf"
}

// Config fully describes a packet buffer instance. Zero values are
// filled by ApplyDefaults; FromDimension builds a paper-faithful
// configuration from the Table 1 parameters.
type Config struct {
	// Q is the number of logical Virtual Output Queues.
	Q int
	// B is the RADS granularity: 2·T_RC in slots (one write plus one
	// read access per B-slot window; see cell.LineRate.Granularity).
	B int
	// Bsmall is the CFDS granularity b; set equal to B for RADS.
	Bsmall int
	// Banks is M, the number of DRAM banks.
	Banks int
	// Lookahead is the MMA lookahead L in slots. Defaults to the ECQF
	// full lookahead Q(b−1)+1.
	Lookahead int
	// LatencySlots is the latency shift register Λ. Defaults to the
	// budget-aware equation (3).
	LatencySlots int
	// RRCapacity is the Requests Register size. Defaults to
	// equation (1), floored at 2·IssuesPerCycle so the degenerate
	// RADS case can stage one read and one write.
	RRCapacity int
	// IssuesPerCycle is the DSA issue budget β per b-slot cycle.
	// Defaults to 2 (one read plus one write sustains the 2× line-rate
	// buffer bandwidth).
	IssuesPerCycle int
	// HeadSRAMCells is the h-SRAM capacity. Defaults to the ECQF
	// ledger bound Q(b−1) + L + Λ over the physical names (see
	// ApplyDefaults), which no ECQF run can exceed.
	HeadSRAMCells int
	// TailSRAMCells is the t-SRAM capacity. Defaults per §3 plus the
	// staging slack.
	TailSRAMCells int
	// BankCapacityBlocks bounds each bank's storage (0 = unbounded).
	BankCapacityBlocks int
	// Renaming enables the §6 logical→physical queue renaming. When
	// disabled queues map to physical names identically (q mod G fixes
	// the group, as in §5.1).
	Renaming bool
	// Oversub is the renaming oversubscription factor A: the physical
	// name space is A·Q. Defaults to 2.
	Oversub int
	// RegisterCap bounds each circular renaming register. Defaults to
	// the number of groups (a queue can span every group).
	RegisterCap int
	// Org selects the shared SRAM organization.
	Org SRAMOrg
	// MMA selects the head MMA.
	MMA MMAKind
	// FIFOScheduler replaces the DSA's oldest-ready-first selection
	// with head-of-line blocking — the ablation showing why §5.3's
	// issue-queue reordering is necessary. WARNING: this deliberately
	// forfeits the worst-case guarantees; conflicting streams stall
	// the Requests Register and misses become possible.
	FIFOScheduler bool
}

// Dimension converts the buffer configuration to the analytic
// parameter set of internal/dimension.
func (c Config) Dimension() dimension.Config {
	q := c.Q
	if c.Renaming {
		// Dimensioning follows the physical name space (§6: "Q is used
		// instead", with P = A·Q).
		q = c.Q * c.oversub()
	}
	return dimension.Config{Q: q, B: c.B, Bsmall: c.Bsmall, M: c.Banks, Lookahead: c.Lookahead}
}

func (c Config) oversub() int {
	if c.Oversub <= 0 {
		return 2
	}
	return c.Oversub
}

// ApplyDefaults fills derived parameters from the dimensioning
// formulas and validates the result.
func (c Config) ApplyDefaults() (Config, error) {
	if c.Bsmall == 0 {
		c.Bsmall = c.B
	}
	if c.IssuesPerCycle <= 0 {
		c.IssuesPerCycle = 2
	}
	if c.Lookahead <= 0 {
		c.Lookahead = dimension.FullLookahead(c.Q, c.Bsmall)
	}
	if c.Renaming {
		c.Oversub = c.oversub()
	}
	d := c.Dimension()
	if err := d.Validate(); err != nil {
		return c, fmt.Errorf("%w: %v", ErrBadConfig, err)
	}
	if c.RRCapacity <= 0 {
		c.RRCapacity = d.RRSize()
		if min := 2 * c.IssuesPerCycle; c.RRCapacity < min {
			c.RRCapacity = min
		}
	}
	if c.LatencySlots <= 0 {
		// Budget-aware equation (3), recomputed with the actual RR
		// capacity (which may exceed the analytic size in the RADS
		// floor case).
		lam := (c.RRCapacity-1)*c.Bsmall + c.IssuesPerCycle*d.MaxSkips()*c.Bsmall + c.B
		c.LatencySlots = lam
	}
	if c.HeadSRAMCells <= 0 {
		// The ECQF ledger bound. Every resident head cell belongs to
		// one of three groups: its request is in the latency register
		// (≤ Λ such cells), its request is in the lookahead (≤ L), or
		// it has no request yet — ECQF keeps occ[q] − requests in
		// window[q] ≤ b−1, so ≤ Q(b−1) such cells, Q counting physical
		// names. A block therefore always fits whole.
		c.HeadSRAMCells = d.Q*(c.Bsmall-1) + c.Lookahead + c.LatencySlots
	}
	if c.TailSRAMCells <= 0 {
		// §3's Q(b−1)+1 bound (inside d.TailSRAMSize) assumes the
		// t-MMA acts the instant a queue reaches b cells; our MMA runs
		// once per b slots, so up to B more cells arrive in between.
		// Staged blocks also occupy the SRAM while their write request
		// sits in the (possibly floored-up) Requests Register, and a
		// cell promised to the cut-through bypass stays resident for a
		// full request pipeline (one per slot at most).
		c.TailSRAMCells = d.TailSRAMSize() + c.B +
			c.RRCapacity*c.Bsmall +
			c.Lookahead + c.LatencySlots
	}
	if c.Renaming && c.RegisterCap <= 0 {
		c.RegisterCap = d.Groups()
	}
	if err := c.validate(); err != nil {
		return c, err
	}
	return c, nil
}

func (c Config) validate() error {
	switch {
	case c.Q <= 0:
		return fmt.Errorf("%w: Q must be positive, got %d", ErrBadConfig, c.Q)
	case c.B < 2 || c.B%2 != 0:
		return fmt.Errorf("%w: B must be an even granularity ≥ 2 (one write + one read per window), got %d", ErrBadConfig, c.B)
	case c.HeadSRAMCells < c.Bsmall:
		return fmt.Errorf("%w: head SRAM (%d cells) smaller than one block (%d)", ErrBadConfig, c.HeadSRAMCells, c.Bsmall)
	case c.TailSRAMCells < c.Bsmall:
		return fmt.Errorf("%w: tail SRAM (%d cells) smaller than one block (%d)", ErrBadConfig, c.TailSRAMCells, c.Bsmall)
	case c.Renaming && c.Oversub < 1:
		return fmt.Errorf("%w: oversubscription must be ≥ 1, got %d", ErrBadConfig, c.Oversub)
	}
	return nil
}

// accessSlots returns the bank random access time T_RC in slots: B/2
// under the B = 2·T_RC convention (§2: buffer bandwidth is twice the
// line rate, so each B-slot window fits one write and one read).
func (c Config) accessSlots() int {
	a := c.B / 2
	if a < 1 {
		a = 1
	}
	return a
}
