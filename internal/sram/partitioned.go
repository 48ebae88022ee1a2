package sram

import (
	"fmt"

	"repro/internal/cell"
)

// PartitionedStore is the distributed (isolated) SRAM organization of
// §7.1: each queue owns a fixed circular-buffer partition of the
// array. It is trivial to build in hardware ("simple direct-mapped
// SRAM structures") but must provision every queue for its worst case,
// so the total is Q × per-queue-worst-case — the motivation for the
// shared organizations, quantified by the equivalence tests and the
// sizing benchmark.
//
// Like the shared stores it supports out-of-order insertion within a
// queue's window (the circular buffer is indexed by position, so a
// late cell simply lands at its slot). It is a per-cell model kept for
// the §7.1 sizing comparison, not a Store: cells are inserted one at a
// time and no slab block is involved.
type PartitionedStore struct {
	perQueue  int
	queues    []partition
	total     int
	highWater int
	capacity  int
}

// partition is one queue's circular buffer; its backing arrays are
// allocated on first contact so idle queues cost one struct slot in
// the dense arena.
type partition struct {
	cells   []cell.Cell
	present []bool
	nextPop uint64
	count   int
}

// NewPartitioned returns a PartitionedStore with queues partitions of
// perQueue cells each, slice-indexed by the physical queue ordinal.
func NewPartitioned(queues, perQueue int) (*PartitionedStore, error) {
	if queues <= 0 {
		return nil, fmt.Errorf("sram: queues must be positive, got %d", queues)
	}
	if perQueue <= 0 {
		return nil, fmt.Errorf("sram: perQueue must be positive, got %d", perQueue)
	}
	return &PartitionedStore{
		perQueue: perQueue,
		queues:   make([]partition, queues),
		capacity: queues * perQueue,
	}, nil
}

func (s *PartitionedStore) queue(q cell.PhysQueueID) *partition {
	for int(q) >= len(s.queues) {
		s.queues = append(s.queues, partition{})
	}
	p := &s.queues[q]
	if p.cells == nil {
		p.cells = make([]cell.Cell, s.perQueue)
		p.present = make([]bool, s.perQueue)
	}
	return p
}

// Insert adds cell c at stream position pos of queue q. Unlike the
// shared organizations, the partition overflows as soon as *one queue* exceeds its share, even
// if the rest of the array is empty — the isolation cost.
func (s *PartitionedStore) Insert(q cell.PhysQueueID, pos uint64, c cell.Cell) error {
	p := s.queue(q)
	if pos < p.nextPop {
		return fmt.Errorf("%w: queue %d pos %d already popped", ErrDuplicate, q, pos)
	}
	if pos >= p.nextPop+uint64(s.perQueue) {
		return fmt.Errorf("%w: queue %d partition of %d cells (pos %d, window starts %d)",
			ErrFull, q, s.perQueue, pos, p.nextPop)
	}
	slot := int(pos % uint64(s.perQueue))
	if p.present[slot] {
		return fmt.Errorf("%w: queue %d pos %d", ErrDuplicate, q, pos)
	}
	p.cells[slot] = c
	p.present[slot] = true
	p.count++
	s.total++
	if s.total > s.highWater {
		s.highWater = s.total
	}
	return nil
}

// Pop removes and returns q's next in-order cell.
func (s *PartitionedStore) Pop(q cell.PhysQueueID) (cell.Cell, error) {
	p := s.queue(q)
	slot := int(p.nextPop % uint64(s.perQueue))
	if !p.present[slot] {
		return cell.Cell{}, fmt.Errorf("%w: queue %d pos %d", ErrMissing, q, p.nextPop)
	}
	c := p.cells[slot]
	p.present[slot] = false
	p.nextPop++
	p.count--
	s.total--
	return c, nil
}

// Peek returns q's next in-order cell without removing it.
func (s *PartitionedStore) Peek(q cell.PhysQueueID) (cell.Cell, bool) {
	p := s.queue(q)
	slot := int(p.nextPop % uint64(s.perQueue))
	if !p.present[slot] {
		return cell.Cell{}, false
	}
	return p.cells[slot], true
}

// HasNext reports whether q's next in-order cell is resident.
func (s *PartitionedStore) HasNext(q cell.PhysQueueID) bool {
	_, ok := s.Peek(q)
	return ok
}

// Len returns the number of resident cells of q.
func (s *PartitionedStore) Len(q cell.PhysQueueID) int { return s.queue(q).count }

// Total returns the number of resident cells.
func (s *PartitionedStore) Total() int { return s.total }

// Cap returns the total capacity in cells.
func (s *PartitionedStore) Cap() int { return s.capacity }

// PerQueue returns the partition size.
func (s *PartitionedStore) PerQueue() int { return s.perQueue }

// HighWater returns the maximum Total ever observed.
func (s *PartitionedStore) HighWater() int { return s.highWater }
