package core

import (
	"fmt"

	"repro/internal/dss"
)

// Stats aggregates everything the paper's guarantees quantify over.
// A correctly dimensioned buffer finishes any run with Misses,
// HeadOverflows, Drops and BadRequests all zero; the DSS sub-stats
// must respect equations (1)–(3).
type Stats struct {
	// Arrivals, Requests and Deliveries count cells through the three
	// external interfaces.
	Arrivals, Requests, Deliveries uint64
	// Bypasses counts deliveries served by the tail-SRAM cut-through.
	Bypasses uint64
	// Misses counts zero-miss violations (must stay 0).
	Misses uint64
	// Drops counts rejected arrivals.
	Drops uint64
	// BadRequests counts arbiter requests for empty queues.
	BadRequests uint64
	// HeadOverflows counts the cells of refused head-SRAM landings, b
	// per refused block (must stay 0).
	HeadOverflows uint64
	// TailStalls / HeadStalls count MMA cycles skipped because the
	// Requests Register or DRAM capacity pushed back.
	TailStalls, HeadStalls uint64
	// TailHighWater / HeadHighWater are SRAM occupancy maxima in
	// cells, for validating the dimensioning formulas.
	TailHighWater, HeadHighWater int
	// FastForwardedSlots counts slots skipped in O(1) by FastForward
	// (directly or through the pktbuf TickBatch idle path) instead of
	// being ticked.
	// It is the only counter dense slot-by-slot ticking leaves zero:
	// equivalence comparisons exclude it by definition.
	FastForwardedSlots uint64
	// DSS carries the scheduler's own counters.
	DSS dss.Stats
}

// Clean reports whether the run upheld every worst-case guarantee.
func (s Stats) Clean() bool {
	return s.Misses == 0 && s.HeadOverflows == 0 && s.Drops == 0 && s.BadRequests == 0
}

// String implements fmt.Stringer with a compact one-line summary.
func (s Stats) String() string {
	return fmt.Sprintf(
		"arrivals=%d requests=%d deliveries=%d bypasses=%d misses=%d drops=%d "+
			"headHW=%d tailHW=%d rrMaxOcc=%d rrMaxSkips=%d rrMaxDelay=%d",
		s.Arrivals, s.Requests, s.Deliveries, s.Bypasses, s.Misses, s.Drops,
		s.HeadHighWater, s.TailHighWater,
		s.DSS.MaxOccupancy, s.DSS.MaxSkips, s.DSS.MaxDelaySlots)
}
