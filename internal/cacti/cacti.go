// Package cacti is an analytical SRAM/CAM area and access-time model
// standing in for CACTI 3.0 [19], which the paper uses to evaluate the
// shared SRAM buffer organizations at a 0.13 µm process (§7.1).
//
// CACTI itself is a closed tool; what the reproduction needs from it
// is the *relative* behaviour the paper's figures rest on:
//
//   - access time grows monotonically (and slightly super-linearly in
//     the paper's regime) with capacity;
//   - the global CAM is the fastest organization per operation, while
//     the time-multiplexed unified linked list serializes three
//     array operations (read + two pointer updates, §7.1) and is
//     therefore ~2-3× slower;
//   - the linked list is by far the smallest in area, the CAM the
//     largest (match logic per bit).
//
// We model access time as a calibrated power law t = t₀ + a·S^p and
// area as a per-bit cost with organization-dependent overhead. The
// constants are anchored to the numbers the paper states in text:
//
//   - CAM access ≈ 3.2 ns at the h-SRAM size where Figure 11 places
//     the OC-3072 RADS queue maximum (~137 queues × (B−1) × 64 B ≈
//     272 kB);
//   - CAM access ≈ 7 ns at 1.0 MB ("the baseline counterpart system
//     would require an access time 7 ns", §10);
//   - unified linked list ≈ 0.1 cm² at 300 kB (§7.2, OC-768);
//   - RADS h+t SRAM ≈ 2 cm² at 2 × 1.0 MB in CAM (§8.3).
//
// TestCalibrationAnchors pins the first three within 10–15 %, and the
// experiments tests check the §10 headline (≈7 ns, ≈2 cm²); the
// curves between anchors are the model's, not the scanned figures'.
package cacti

import (
	"fmt"
	"math"

	"repro/internal/cell"
)

// Org identifies a shared-buffer organization (§7.1).
type Org int

// Organizations evaluated in the paper.
const (
	// OrgSRAM is a plain direct-mapped single-port SRAM array — the
	// building block of the other two (and the per-queue circular
	// buffer organization usable only for distributed buffers).
	OrgSRAM Org = iota
	// OrgCAM is the global content-addressable memory: one associative
	// lookup per operation, two ports (§7.1).
	OrgCAM
	// OrgLinkedList is the unified linked list, time-multiplexed onto
	// a single-port direct-mapped array: three serialized array
	// operations per cell access (§7.1).
	OrgLinkedList
)

// String implements fmt.Stringer.
func (o Org) String() string {
	switch o {
	case OrgSRAM:
		return "direct-mapped SRAM"
	case OrgCAM:
		return "global CAM"
	case OrgLinkedList:
		return "unified linked list (time-mux)"
	default:
		return fmt.Sprintf("Org(%d)", int(o))
	}
}

// Model calibration constants (0.13 µm, see package comment).
const (
	// accessAnchorBytes / accessAnchorNS pin the CAM power law.
	accessAnchorBytes = 272e3
	accessAnchorNS    = 3.2
	// accessExponent is fitted to the second anchor CAM(1.0 MB)=7 ns:
	// p = ln(7/3.2) / ln(1.0e6/272e3) ≈ 0.59.
	accessExponent = 0.59
	// accessFloorNS is the fixed decode+sense overhead.
	accessFloorNS = 0.15
	// sramVsCAMSpeed is the direct-mapped array's speed advantage over
	// the CAM (no match line, no tag broadcast).
	sramVsCAMSpeed = 0.60
	// listSerialOps is the time-multiplexing factor of the unified
	// linked list: read cell + update old tail pointer + update
	// head/tail table (§7.1).
	listSerialOps = 3
	// Per-bit areas in µm², including peripheral overhead. The linked
	// list stores a pointer per 512-bit cell on top of the payload,
	// accounted separately via listPointerOverhead.
	sramAreaPerBit = 3.4
	camAreaPerBit  = 12.0
	listAreaPerBit = 4.2
)

// Estimate is the model output for one array.
type Estimate struct {
	// AccessNS is the time for one full cell operation in nanoseconds
	// (for the linked list this includes the serialized pointer
	// operations).
	AccessNS float64
	// AreaCM2 is the silicon area in cm².
	AreaCM2 float64
}

// camAccessNS is the calibrated base curve.
func camAccessNS(bytes float64) float64 {
	if bytes <= 0 {
		return 0
	}
	return accessFloorNS + accessAnchorNS*math.Pow(bytes/accessAnchorBytes, accessExponent)
}

// AccessNS returns the per-cell-operation access time of an array of
// the given capacity in bytes.
func AccessNS(org Org, bytes int) float64 {
	if bytes <= 0 {
		return 0
	}
	b := float64(bytes)
	switch org {
	case OrgCAM:
		return camAccessNS(b)
	case OrgLinkedList:
		return float64(listSerialOps) * (accessFloorNS + sramVsCAMSpeed*(camAccessNS(b)-accessFloorNS))
	default:
		return accessFloorNS + sramVsCAMSpeed*(camAccessNS(b)-accessFloorNS)
	}
}

// AreaCM2 returns the silicon area of an array of the given capacity.
func AreaCM2(org Org, bytes int) float64 {
	bits := float64(bytes) * 8
	var perBit float64
	switch org {
	case OrgCAM:
		perBit = camAreaPerBit
	case OrgLinkedList:
		perBit = listAreaPerBit
	default:
		perBit = sramAreaPerBit
	}
	const um2PerCM2 = 1e8
	return bits * perBit / um2PerCM2
}

// Estimate returns both metrics for an array of capacity cells cells
// (64 B each).
func ForCells(org Org, cells64 int) Estimate {
	bytes := cells64 * cell.Size
	return Estimate{AccessNS: AccessNS(org, bytes), AreaCM2: AreaCM2(org, bytes)}
}

// MeetsBudget reports whether the organization at the given capacity
// sustains one cell operation per slot at the line rate.
func MeetsBudget(org Org, cells64 int, rate cell.LineRate) bool {
	return ForCells(org, cells64).AccessNS <= rate.AccessBudgetNS()
}
