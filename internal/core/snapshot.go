package core

import (
	"errors"
	"fmt"
	"io"

	"repro/internal/cell"
	"repro/internal/dram"
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
	fw.Attr("loghead", int64(b.look.Head()))
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

	// The logical side of the request pipeline: the logical queue of
	// each ring slot holding a live request. (The lookahead frames the
	// physical side below; a bypass request is framed here only.)
	live := 0
	for i := range b.look.Size() {
		if b.pipeQueue(i) != cell.NoQueue {
			live++
		}
	}
	fw.Begin("logical")
	fw.Attr("entries", int64(live))
	for i := range b.look.Size() {
		if q := b.pipeQueue(i); q != cell.NoQueue {
			fw.Row(int64(i), int64(q))
		}
	}

	// Per-queue cursor/counter arena; the fourth column is the queue's
	// occupancy, arrivedSeq − deliveredSeq.
	live = 0
	for q := range b.ks.arrivedSeq {
		if b.ks.arrivedSeq[q] != 0 || b.ks.deliveredSeq[q] != 0 || b.ks.pendingReq[q] != 0 {
			live++
		}
	}
	fw.Begin("ks")
	fw.Attr("entries", int64(live))
	for q := range b.ks.arrivedSeq {
		if b.ks.arrivedSeq[q] != 0 || b.ks.deliveredSeq[q] != 0 || b.ks.pendingReq[q] != 0 {
			fw.Row(int64(q), int64(b.ks.arrivedSeq[q]), int64(b.ks.deliveredSeq[q]),
				int64(b.Len(cell.QueueID(q))), int64(b.ks.pendingReq[q]))
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
		t.cells(b.slab, b.ks.arrivedSeq[q], func(seq uint64) { fw.Row(int64(q), int64(seq)) })
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
// with ErrSnapshot rather than restored approximately. So is a stream
// that is malformed or inconsistent: every rejection of the stream
// itself wraps ErrSnapshot (and frame.ErrFrame for a malformed frame),
// except an unknown layout version, which wraps ErrSnapshotVersion.
func RestoreBuffer(r io.Reader, cfg Config) (*Buffer, error) {
	b, err := restoreBuffer(r, cfg)
	if err != nil && !errors.Is(err, ErrSnapshot) && !errors.Is(err, ErrSnapshotVersion) && !errors.Is(err, ErrBadConfig) {
		err = fmt.Errorf("%w: %w", ErrSnapshot, err)
	}
	return b, err
}

func restoreBuffer(r io.Reader, cfg Config) (*Buffer, error) {
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
	var logHead int64
	for _, f := range []struct {
		key string
		set func(int64)
	}{
		{"now", func(v int64) { b.now = cell.Slot(v) }},
		{"loghead", func(v int64) { logHead = v }},
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
	// The t-MMA stages at most one block per b-slot cycle, so every
	// block ordinal of every physical queue is below blocks: the bound
	// every section checks its ordinals against.
	blocks := uint64(b.now)/uint64(b.cfg.Bsmall) + 1
	// The pipeline ring's head moves with the slot counter.
	pipeHead := int64(uint64(b.now) % uint64(b.look.Size()))
	if logHead != pipeHead {
		return nil, fmt.Errorf("%w: pipeline head %d at slot %d, want %d", frame.ErrFrame, logHead, b.now, pipeHead)
	}

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
	// The rows join the ring once the lookahead is restored below.
	var pipe [][2]int64
	for i := int64(0); i < n; i++ {
		row, err := fr.NeedRow(2)
		if err != nil {
			return nil, err
		}
		if row[0] < 0 || row[0] >= int64(b.look.Size()) {
			return nil, fmt.Errorf("%w: pipeline slot %d out of range", frame.ErrFrame, row[0])
		}
		if row[1] < 0 || row[1] >= int64(b.cfg.Q) {
			return nil, fmt.Errorf("%w: pipeline slot %d names queue %d", frame.ErrFrame, row[0], row[1])
		}
		pipe = append(pipe, [2]int64{row[0], row[1]})
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
		// A queue's occupancy is its cursors' difference, and a block
		// record holds sequence numbers up to dram.MaxSeq.
		if row[1] < 0 || uint64(row[1]) >= dram.MaxSeq || row[2] < 0 || row[2] > row[1] || row[3] != row[1]-row[2] {
			return nil, fmt.Errorf("%w: ks queue %d holds %d cells between seqs %d and %d",
				frame.ErrFrame, q, row[3], row[2], row[1])
		}
		b.ks.arrivedSeq[q] = uint64(row[1])
		b.ks.deliveredSeq[q] = uint64(row[2])
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
		arrived := b.ks.arrivedSeq[q]
		if promised < 0 || promised > cells || uint64(cells-promised) > arrived || t.n != 0 {
			return nil, fmt.Errorf("%w: tail queue %d promises %d of %d cells after %d arrivals",
				frame.ErrFrame, q, promised, cells, arrived)
		}
		// The promised cells strictly increase and are rebuilt as runs;
		// the unpromised ones are exactly the youngest arrivals.
		u, prev := arrived-uint64(cells-promised), uint64(0)
		for j := int64(0); j < cells; j++ {
			row, err := fr.NeedRow(2)
			if err != nil {
				return nil, err
			}
			if row[0] != q {
				return nil, fmt.Errorf("%w: tail queue %d holds a cell of queue %d", frame.ErrFrame, q, row[0])
			}
			seq := uint64(row[1])
			switch {
			case j >= promised:
				if seq != u+uint64(j-promised) {
					return nil, fmt.Errorf("%w: tail queue %d unpromised cell %d has seq %d, want %d",
						frame.ErrFrame, q, j-promised, seq, u+uint64(j-promised))
				}
			case seq >= u || (j > 0 && seq <= prev):
				return nil, fmt.Errorf("%w: tail queue %d promised seq %d out of order", frame.ErrFrame, q, seq)
			default:
				t.promise(b.slab, seq)
				prev = seq
			}
		}
		t.n = int32(cells)
	}

	if err := fr.Expect("comp"); err != nil {
		return nil, err
	}
	if n, err = fr.NeedAttr("buckets"); err != nil {
		return nil, err
	}
	comps := 0
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
		if slot < 0 || slot >= int64(len(b.compRing)) || len(b.compRing[slot]) != 0 {
			return nil, fmt.Errorf("%w: completion slot %d out of range or framed twice", frame.ErrFrame, slot)
		}
		for j := int64(0); j < cnt; j++ {
			row, err := fr.NeedRow(2 + 2*b.cfg.Bsmall)
			if err != nil {
				return nil, err
			}
			if row[0] < 0 || row[0] >= int64(b.dram.Config().Queues) || row[1] < 0 || uint64(row[1]) >= blocks {
				return nil, fmt.Errorf("%w: completion of queue %d block %d", frame.ErrFrame, row[0], row[1])
			}
			blk, err := b.dram.RestoreBlock(row[2:])
			if err != nil {
				return nil, fmt.Errorf("completion slot %d: %w", slot, err)
			}
			if err := b.dram.Place(cell.PhysQueueID(row[0]), uint64(row[1]), blk, dram.InFlight); err != nil {
				return nil, fmt.Errorf("completion slot %d: %w", slot, err)
			}
			b.compRing[slot] = append(b.compRing[slot], completion{
				phys: cell.PhysQueueID(row[0]), ordinal: uint64(row[1]), blk: blk,
			})
			comps++
		}
	}
	if comps != b.compPending {
		return nil, fmt.Errorf("%w: %d completions, comppending %d", frame.ErrFrame, comps, b.compPending)
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
		if err := m.table.Restore(fr, b.cfg.Q); err != nil {
			return nil, err
		}
	}

	if err := b.look.Restore(fr); err != nil {
		return nil, err
	}
	if err := b.restorePipe(pipe); err != nil {
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
	// The t-MMA's ledger counts each queue's stageable tail cells:
	// staging trusts it to find b of them.
	for q := range b.tails {
		if t := &b.tails[q]; b.tmma.Occupancy(cell.QueueID(q)) != int(t.n-t.promised) {
			return nil, fmt.Errorf("%w: tail queue %d: t-MMA ledger %d for %d unpromised cells",
				frame.ErrFrame, q, b.tmma.Occupancy(cell.QueueID(q)), t.n-t.promised)
		}
	}
	switch s := b.head.(type) {
	case *sram.CAMStore:
		err = s.Restore(fr, blocks)
	case *sram.ListStore:
		err = s.Restore(fr, blocks)
	}
	if err != nil {
		return nil, err
	}
	if err := b.dram.Restore(fr, blocks); err != nil {
		return nil, err
	}
	if err := b.sched.Restore(fr, b.dram); err != nil {
		return nil, err
	}
	// Every section has placed its blocks: relink each queue's list. A
	// refused head landing (HeadOverflows counts b cells for each)
	// leaves a block in flight that no section frames.
	if err := b.dram.Relink(b.stats.HeadOverflows / uint64(b.cfg.Bsmall)); err != nil {
		return nil, err
	}
	if err := fr.Expect("end"); err != nil {
		return nil, fmt.Errorf("%w: truncated stream: %v", ErrSnapshot, err)
	}
	return b, nil
}

// restorePipe joins the logical rows of the snapshot's pipeline with
// the restored lookahead: a row at an idle slot is a bypass request,
// and one at a physical request names its logical queue (its physical
// name itself under identity mapping). Every request must have exactly
// one row, and inpipe must count them.
func (b *Buffer) restorePipe(pipe [][2]int64) error {
	if b.look.Head() != int(uint64(b.now)%uint64(b.look.Size())) {
		return fmt.Errorf("%w: lookahead head %d at slot %d", frame.ErrFrame, b.look.Head(), b.now)
	}
	for _, r := range pipe {
		slot, q := int(r[0]), cell.QueueID(r[1])
		switch e := b.look.Entry(slot); {
		case e == cell.NoPhysQueue:
			b.look.Tag(slot, bypassEntry(q))
		case e < cell.NoPhysQueue || (b.logical == nil && e != cell.PhysQueueID(q)):
			return fmt.Errorf("%w: pipeline slot %d: logical queue %d for entry %d", frame.ErrFrame, slot, q, e)
		case b.logical != nil:
			b.logical[slot] = q
		}
	}
	live := 0
	for i := range b.look.Size() {
		e := b.look.Entry(i)
		if int(e) >= b.dram.Config().Queues || (e >= 0 && b.pipeQueue(i) == cell.NoQueue) {
			return fmt.Errorf("%w: pipeline slot %d: physical queue %d", frame.ErrFrame, i, e)
		}
		if e != cell.NoPhysQueue {
			live++
		}
	}
	if live != len(pipe) || live != b.inPipe {
		return fmt.Errorf("%w: pipeline holds %d requests for %d rows, inpipe %d", frame.ErrFrame, live, len(pipe), b.inPipe)
	}
	return nil
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
