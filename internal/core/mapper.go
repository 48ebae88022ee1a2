package core

import (
	"fmt"

	"repro/internal/cell"
	"repro/internal/dram"
	"repro/internal/rename"
)

// mapper abstracts the logical→physical queue translation so the same
// buffer datapath runs with renaming enabled (§6) or with the static
// identity assignment of §5.1.
type mapper interface {
	// PeekWriteTarget reports whether a block of q could be written
	// now, without mutating state (the t-MMA's eligibility check).
	PeekWriteTarget(q cell.QueueID) (cell.PhysQueueID, error)
	// WriteTarget returns the physical queue the next block of q must
	// be written to, allocating names as needed.
	WriteTarget(q cell.QueueID) (cell.PhysQueueID, error)
	// NoteWrite credits one staged block to q's mapping.
	NoteWrite(q cell.QueueID, p cell.PhysQueueID) error
	// ConsumeForRequest translates one scheduler request. ok=false
	// means the cell never entered the DRAM path (bypass).
	ConsumeForRequest(q cell.QueueID) (p cell.PhysQueueID, ok bool)
}

// identityMapper is the §5.1 static assignment: physical name = q, so
// the queue's group is q mod G forever.
type identityMapper struct {
	dram       *dram.DRAM
	blockCells int // b, fixed at construction
	// towardDRAM counts cells written toward DRAM minus cells
	// requested, per queue — the single-entry degenerate form of the
	// renaming counter. Dense arena indexed by the queue ordinal.
	towardDRAM []int
}

func newIdentityMapper(d *dram.DRAM, queues int) *identityMapper {
	return &identityMapper{dram: d, blockCells: d.Config().BlockCells, towardDRAM: make([]int, queues)}
}

func (m *identityMapper) PeekWriteTarget(q cell.QueueID) (cell.PhysQueueID, error) {
	p := cell.PhysQueueID(q)
	if !m.dram.CanWrite(p) {
		return cell.NoPhysQueue, fmt.Errorf("core: group %d full for queue %d", m.dram.Group(p), q)
	}
	return p, nil
}

func (m *identityMapper) WriteTarget(q cell.QueueID) (cell.PhysQueueID, error) {
	return m.PeekWriteTarget(q)
}

func (m *identityMapper) NoteWrite(q cell.QueueID, _ cell.PhysQueueID) error {
	m.towardDRAM[q] += m.blockCells
	return nil
}

func (m *identityMapper) ConsumeForRequest(q cell.QueueID) (cell.PhysQueueID, bool) {
	if q < 0 || int(q) >= len(m.towardDRAM) || m.towardDRAM[q] <= 0 {
		return cell.NoPhysQueue, false
	}
	m.towardDRAM[q]--
	return cell.PhysQueueID(q), true
}

// renameMapper adapts rename.Table to the mapper interface, feeding it
// the DRAM's capacity and occupancy views.
type renameMapper struct {
	table *rename.Table
	dram  *dram.DRAM
}

func (m *renameMapper) groupOK(g int) bool {
	if m.dram.Config().BankCapacityBlocks == 0 {
		return true
	}
	return m.dram.GroupOccupancy(g) < m.dram.GroupCapacityBlocks()
}

func (m *renameMapper) PeekWriteTarget(q cell.QueueID) (cell.PhysQueueID, error) {
	// Cheap feasibility probe: either the tail entry's group has room,
	// or some group has both room and a free name.
	if p, ok := m.table.ReadTargetTail(q); ok && m.groupOK(int(p)%m.table.Groups()) {
		return p, nil
	}
	for g := 0; g < m.table.Groups(); g++ {
		if m.table.FreeNames(g) > 0 && m.groupOK(g) {
			if m.table.Entries(q) >= m.table.RegisterCap() && m.table.Entries(q) > 0 {
				break
			}
			return cell.NoPhysQueue, nil // allocation would succeed
		}
	}
	return cell.NoPhysQueue, rename.ErrNoFreeNames
}

func (m *renameMapper) WriteTarget(q cell.QueueID) (cell.PhysQueueID, error) {
	return m.table.WriteTarget(q, m.groupOK, m.dram.GroupOccupancy)
}

func (m *renameMapper) NoteWrite(q cell.QueueID, p cell.PhysQueueID) error {
	return m.table.NoteWrite(q, p)
}

func (m *renameMapper) ConsumeForRequest(q cell.QueueID) (cell.PhysQueueID, bool) {
	p, err := m.table.ConsumeCell(q)
	if err != nil {
		return cell.NoPhysQueue, false
	}
	return p, true
}
