package core

import (
	"errors"
	"fmt"
	"io"

	"repro/internal/cell"
	"repro/internal/frame"
	"repro/internal/mma"
	"repro/internal/sram"
)

// Snapshot errors.
var (
	// ErrSnapshotVersion means the stream encodes a snapshot layout this
	// build does not understand.
	ErrSnapshotVersion = errors.New("core: unsupported snapshot version")
	// ErrSnapshot marks a snapshot rejected on restore: truncated,
	// internally inconsistent, or taken from a differently configured
	// buffer.
	ErrSnapshot = errors.New("core: invalid snapshot")
)

// snapshotVersion is the layout version this build reads and writes.
const snapshotVersion = 1

// Snapshot serializes the complete engine state — every arena, ledger,
// ring and counter the next Tick can observe — as a versioned sequence
// of text frames (internal/frame, layered on the trace record
// conventions). RestoreBuffer reproduces a buffer that is
// bit-identical to this one: the differential suite pins that a
// restored buffer and the original produce identical outputs and
// statistics for any subsequent stimulus.
//
// Scratch that the next slot cannot observe (delivery scratch cells,
// the cell slab's layout, links and free list) is not serialized:
// blocks — in the tail SRAM, in flight, in DRAM and in the head SRAM —
// are framed by their cells; derived indices
// (bitsets, ECQF window lists, bucketed max-trackers) are rebuilt on
// restore from the authoritative state.
func (b *Buffer) Snapshot(w io.Writer) error {
	fw := frame.NewWriter(w)
	fw.Comment("pktbuf snapshot")
	fw.Begin("snapshot")
	fw.Attr("version", snapshotVersion)
	snapshotConfig(fw, b.cfg)

	fw.Begin("core")
	fw.Attr("now", int64(b.now))
	fw.Attr("loghead", int64(b.logHead))
	fw.Attr("inpipe", int64(b.inPipe))
	fw.Attr("pending", int64(b.pendingTotal))
	fw.Attr("tailtotal", int64(b.tailTotal))
	fw.Attr("comppending", int64(b.compPending))

	fw.Begin("core-stats")
	fw.Attr("arrivals", int64(b.stats.Arrivals))
	fw.Attr("requests", int64(b.stats.Requests))
	fw.Attr("deliveries", int64(b.stats.Deliveries))
	fw.Attr("bypasses", int64(b.stats.Bypasses))
	fw.Attr("misses", int64(b.stats.Misses))
	fw.Attr("drops", int64(b.stats.Drops))
	fw.Attr("badreq", int64(b.stats.BadRequests))
	fw.Attr("headovf", int64(b.stats.HeadOverflows))
	fw.Attr("tailstalls", int64(b.stats.TailStalls))
	fw.Attr("headstalls", int64(b.stats.HeadStalls))
	fw.Attr("tailhw", int64(b.stats.TailHighWater))
	fw.Attr("ff", int64(b.stats.FastForwardedSlots))

	// The logical side of the request pipeline: ring slots holding a
	// live request. (The physical side is the lookahead, framed below.)
	live := 0
	for _, e := range b.logical {
		if e.logical != cell.NoQueue {
			live++
		}
	}
	fw.Begin("logical")
	fw.Attr("entries", int64(live))
	for i, e := range b.logical {
		if e.logical != cell.NoQueue {
			fw.Row(int64(i), int64(e.logical))
		}
	}

	// Per-queue cursor/counter arena.
	live = 0
	for q := range b.ks.arrivedSeq {
		if b.ks.arrivedSeq[q] != 0 || b.ks.deliveredSeq[q] != 0 || b.ks.sysOcc[q] != 0 || b.ks.pendingReq[q] != 0 {
			live++
		}
	}
	fw.Begin("ks")
	fw.Attr("entries", int64(live))
	for q := range b.ks.arrivedSeq {
		if b.ks.arrivedSeq[q] != 0 || b.ks.deliveredSeq[q] != 0 || b.ks.sysOcc[q] != 0 || b.ks.pendingReq[q] != 0 {
			fw.Row(int64(q), int64(b.ks.arrivedSeq[q]), int64(b.ks.deliveredSeq[q]),
				int64(b.ks.sysOcc[q]), int64(b.ks.pendingReq[q]))
		}
	}

	// Tail SRAM chains, oldest cell first.
	live = 0
	for q := range b.tails {
		if b.tails[q].len() > 0 {
			live++
		}
	}
	fw.Begin("tails")
	fw.Attr("queues", int64(live))
	for q := range b.tails {
		t := &b.tails[q]
		if t.len() == 0 {
			continue
		}
		fw.Begin("tail")
		fw.Attr("q", int64(q))
		fw.Attr("promised", int64(t.promised))
		fw.Attr("n", int64(t.len()))
		t.cells(b.slab, func(c cell.Cell) { fw.Row(int64(c.Queue), int64(c.Seq)) })
	}

	// Completion calendar: in-flight DRAM→SRAM transfers by landing
	// slot.
	live = 0
	for _, bucket := range b.compRing {
		if len(bucket) > 0 {
			live++
		}
	}
	fw.Begin("comp")
	fw.Attr("buckets", int64(live))
	for i, bucket := range b.compRing {
		if len(bucket) == 0 {
			continue
		}
		fw.Begin("comp-slot")
		fw.Attr("i", int64(i))
		fw.Attr("n", int64(len(bucket)))
		for _, c := range bucket {
			row := make([]int64, 2, 2+2*b.cfg.Bsmall)
			row[0], row[1] = int64(c.phys), int64(c.ordinal)
			fw.Row(b.dram.AppendCells(row, c.blk)...)
		}
	}

	// Logical→physical mapping state.
	switch m := b.mapr.(type) {
	case *identityMapper:
		live = 0
		for _, v := range m.towardDRAM {
			if v != 0 {
				live++
			}
		}
		fw.Begin("ident")
		fw.Attr("entries", int64(live))
		for q, v := range m.towardDRAM {
			if v != 0 {
				fw.Row(int64(q), int64(v))
			}
		}
	case *renameMapper:
		m.table.Snapshot(fw)
	}

	// Substrates. The lookahead precedes the head MMA: an ECQF rebuilds
	// its window index from the restored ring.
	b.look.Snapshot(fw)
	switch h := b.hmma.(type) {
	case *mma.ECQF:
		h.Snapshot(fw)
	case *mma.MDQF:
		h.Snapshot(fw)
	}
	b.tmma.Snapshot(fw)
	switch s := b.head.(type) {
	case *sram.CAMStore:
		s.Snapshot(fw)
	case *sram.ListStore:
		s.Snapshot(fw)
	}
	b.dram.Snapshot(fw)
	b.sched.Snapshot(fw, b.now, b.dram)
	fw.Begin("end")
	return fw.Flush()
}

// RestoreBuffer reconstructs a buffer from a Snapshot stream. cfg must
// describe the same buffer the snapshot was taken from (ApplyDefaults
// is invoked internally, then the defaulted configuration is checked
// against the one recorded in the snapshot); a mismatch is rejected
// with ErrSnapshot rather than restored approximately.
func RestoreBuffer(r io.Reader, cfg Config) (*Buffer, error) {
	fr := frame.NewReader(r)
	if err := fr.Expect("snapshot"); err != nil {
		return nil, err
	}
	v, err := fr.NeedAttr("version")
	if err != nil {
		return nil, err
	}
	if v != snapshotVersion {
		return nil, fmt.Errorf("%w: got %d, this build reads %d", ErrSnapshotVersion, v, snapshotVersion)
	}
	snapCfg, err := restoreConfig(fr)
	if err != nil {
		return nil, err
	}
	cfg, err = cfg.ApplyDefaults()
	if err != nil {
		return nil, err
	}
	if cfg != snapCfg {
		return nil, fmt.Errorf("%w: snapshot taken from a different configuration (snapshot %+v, restore %+v)",
			ErrSnapshot, snapCfg, cfg)
	}
	b, err := New(cfg)
	if err != nil {
		return nil, err
	}

	if err := fr.Expect("core"); err != nil {
		return nil, err
	}
	for _, f := range []struct {
		key string
		set func(int64)
	}{
		{"now", func(v int64) { b.now = cell.Slot(v) }},
		{"loghead", func(v int64) { b.logHead = int(v) }},
		{"inpipe", func(v int64) { b.inPipe = int(v) }},
		{"pending", func(v int64) { b.pendingTotal = int(v) }},
		{"tailtotal", func(v int64) { b.tailTotal = int(v) }},
		{"comppending", func(v int64) { b.compPending = int(v) }},
	} {
		v, err := fr.NeedAttr(f.key)
		if err != nil {
			return nil, err
		}
		f.set(v)
	}
	b.deriveCursors()

	if err := fr.Expect("core-stats"); err != nil {
		return nil, err
	}
	for _, f := range []struct {
		key string
		set func(int64)
	}{
		{"arrivals", func(v int64) { b.stats.Arrivals = uint64(v) }},
		{"requests", func(v int64) { b.stats.Requests = uint64(v) }},
		{"deliveries", func(v int64) { b.stats.Deliveries = uint64(v) }},
		{"bypasses", func(v int64) { b.stats.Bypasses = uint64(v) }},
		{"misses", func(v int64) { b.stats.Misses = uint64(v) }},
		{"drops", func(v int64) { b.stats.Drops = uint64(v) }},
		{"badreq", func(v int64) { b.stats.BadRequests = uint64(v) }},
		{"headovf", func(v int64) { b.stats.HeadOverflows = uint64(v) }},
		{"tailstalls", func(v int64) { b.stats.TailStalls = uint64(v) }},
		{"headstalls", func(v int64) { b.stats.HeadStalls = uint64(v) }},
		{"tailhw", func(v int64) { b.stats.TailHighWater = int(v) }},
		{"ff", func(v int64) { b.stats.FastForwardedSlots = uint64(v) }},
	} {
		v, err := fr.NeedAttr(f.key)
		if err != nil {
			return nil, err
		}
		f.set(v)
	}

	if err := fr.Expect("logical"); err != nil {
		return nil, err
	}
	n, err := fr.NeedAttr("entries")
	if err != nil {
		return nil, err
	}
	for i := int64(0); i < n; i++ {
		row, err := fr.NeedRow(2)
		if err != nil {
			return nil, err
		}
		slot := int(row[0])
		if slot < 0 || slot >= len(b.logical) {
			return nil, fmt.Errorf("%w: pipeline slot %d out of range", frame.ErrFrame, slot)
		}
		b.logical[slot].logical = cell.QueueID(row[1])
	}

	if err := fr.Expect("ks"); err != nil {
		return nil, err
	}
	if n, err = fr.NeedAttr("entries"); err != nil {
		return nil, err
	}
	for i := int64(0); i < n; i++ {
		row, err := fr.NeedRow(5)
		if err != nil {
			return nil, err
		}
		q := int(row[0])
		if q < 0 || q >= len(b.ks.arrivedSeq) {
			return nil, fmt.Errorf("%w: ks queue %d out of range", frame.ErrFrame, q)
		}
		b.ks.arrivedSeq[q] = uint64(row[1])
		b.ks.deliveredSeq[q] = uint64(row[2])
		b.ks.sysOcc[q] = int32(row[3])
		b.ks.pendingReq[q] = int32(row[4])
	}

	if err := fr.Expect("tails"); err != nil {
		return nil, err
	}
	if n, err = fr.NeedAttr("queues"); err != nil {
		return nil, err
	}
	for i := int64(0); i < n; i++ {
		if err := fr.Expect("tail"); err != nil {
			return nil, err
		}
		q, err := fr.NeedAttr("q")
		if err != nil {
			return nil, err
		}
		promised, err := fr.NeedAttr("promised")
		if err != nil {
			return nil, err
		}
		cells, err := fr.NeedAttr("n")
		if err != nil {
			return nil, err
		}
		if q < 0 || q >= int64(len(b.tails)) {
			return nil, fmt.Errorf("%w: tail queue %d out of range", frame.ErrFrame, q)
		}
		t := &b.tails[q]
		for j := int64(0); j < cells; j++ {
			row, err := fr.NeedRow(2)
			if err != nil {
				return nil, err
			}
			t.push(b.slab, cell.Cell{Queue: cell.QueueID(row[0]), Seq: uint64(row[1])})
		}
		if promised < 0 || promised > cells {
			return nil, fmt.Errorf("%w: tail queue %d promises %d of %d cells", frame.ErrFrame, q, promised, cells)
		}
		t.promised = int32(promised)
	}

	if err := fr.Expect("comp"); err != nil {
		return nil, err
	}
	if n, err = fr.NeedAttr("buckets"); err != nil {
		return nil, err
	}
	for i := int64(0); i < n; i++ {
		if err := fr.Expect("comp-slot"); err != nil {
			return nil, err
		}
		slot, err := fr.NeedAttr("i")
		if err != nil {
			return nil, err
		}
		cnt, err := fr.NeedAttr("n")
		if err != nil {
			return nil, err
		}
		if slot < 0 || slot >= int64(len(b.compRing)) {
			return nil, fmt.Errorf("%w: completion slot %d out of range", frame.ErrFrame, slot)
		}
		for j := int64(0); j < cnt; j++ {
			row, err := fr.NeedRow(2 + 2*b.cfg.Bsmall)
			if err != nil {
				return nil, err
			}
			b.compRing[slot] = append(b.compRing[slot], completion{
				phys: cell.PhysQueueID(row[0]), ordinal: uint64(row[1]), blk: b.dram.RestoreBlock(row[2:]),
			})
		}
	}

	switch m := b.mapr.(type) {
	case *identityMapper:
		if err := fr.Expect("ident"); err != nil {
			return nil, err
		}
		if n, err = fr.NeedAttr("entries"); err != nil {
			return nil, err
		}
		for i := int64(0); i < n; i++ {
			row, err := fr.NeedRow(2)
			if err != nil {
				return nil, err
			}
			q := int(row[0])
			if q < 0 || q >= len(m.towardDRAM) {
				return nil, fmt.Errorf("%w: mapper queue %d out of range", frame.ErrFrame, q)
			}
			m.towardDRAM[q] = int(row[1])
		}
	case *renameMapper:
		if err := m.table.Restore(fr); err != nil {
			return nil, err
		}
	}

	if err := b.look.Restore(fr); err != nil {
		return nil, err
	}
	switch h := b.hmma.(type) {
	case *mma.ECQF:
		err = h.Restore(fr)
	case *mma.MDQF:
		err = h.Restore(fr)
	}
	if err != nil {
		return nil, err
	}
	if err := b.tmma.Restore(fr); err != nil {
		return nil, err
	}
	switch s := b.head.(type) {
	case *sram.CAMStore:
		err = s.Restore(fr)
	case *sram.ListStore:
		err = s.Restore(fr)
	}
	if err != nil {
		return nil, err
	}
	if err := b.dram.Restore(fr); err != nil {
		return nil, err
	}
	if err := b.sched.Restore(fr, b.dram); err != nil {
		return nil, err
	}
	if err := fr.Expect("end"); err != nil {
		return nil, fmt.Errorf("%w: truncated stream: %v", ErrSnapshot, err)
	}
	return b, nil
}

func boolAttr(v bool) int64 {
	if v {
		return 1
	}
	return 0
}

// snapshotConfig frames the fully defaulted configuration so restore
// can reject a mismatched target instead of misinterpreting arenas.
func snapshotConfig(w *frame.Writer, c Config) {
	w.Begin("config")
	w.Attr("q", int64(c.Q))
	w.Attr("b", int64(c.B))
	w.Attr("bsmall", int64(c.Bsmall))
	w.Attr("banks", int64(c.Banks))
	w.Attr("lookahead", int64(c.Lookahead))
	w.Attr("latency", int64(c.LatencySlots))
	w.Attr("rrcap", int64(c.RRCapacity))
	w.Attr("issues", int64(c.IssuesPerCycle))
	w.Attr("headcells", int64(c.HeadSRAMCells))
	w.Attr("tailcells", int64(c.TailSRAMCells))
	w.Attr("bankcap", int64(c.BankCapacityBlocks))
	w.Attr("renaming", boolAttr(c.Renaming))
	w.Attr("oversub", int64(c.Oversub))
	w.Attr("regcap", int64(c.RegisterCap))
	w.Attr("org", int64(c.Org))
	w.Attr("mma", int64(c.MMA))
	w.Attr("fifo", boolAttr(c.FIFOScheduler))
}

func restoreConfig(r *frame.Reader) (Config, error) {
	var c Config
	if err := r.Expect("config"); err != nil {
		return c, err
	}
	for _, f := range []struct {
		key string
		set func(int64)
	}{
		{"q", func(v int64) { c.Q = int(v) }},
		{"b", func(v int64) { c.B = int(v) }},
		{"bsmall", func(v int64) { c.Bsmall = int(v) }},
		{"banks", func(v int64) { c.Banks = int(v) }},
		{"lookahead", func(v int64) { c.Lookahead = int(v) }},
		{"latency", func(v int64) { c.LatencySlots = int(v) }},
		{"rrcap", func(v int64) { c.RRCapacity = int(v) }},
		{"issues", func(v int64) { c.IssuesPerCycle = int(v) }},
		{"headcells", func(v int64) { c.HeadSRAMCells = int(v) }},
		{"tailcells", func(v int64) { c.TailSRAMCells = int(v) }},
		{"bankcap", func(v int64) { c.BankCapacityBlocks = int(v) }},
		{"renaming", func(v int64) { c.Renaming = v != 0 }},
		{"oversub", func(v int64) { c.Oversub = int(v) }},
		{"regcap", func(v int64) { c.RegisterCap = int(v) }},
		{"org", func(v int64) { c.Org = SRAMOrg(v) }},
		{"mma", func(v int64) { c.MMA = MMAKind(v) }},
		{"fifo", func(v int64) { c.FIFOScheduler = v != 0 }},
	} {
		v, err := r.NeedAttr(f.key)
		if err != nil {
			return c, err
		}
		f.set(v)
	}
	return c, nil
}
