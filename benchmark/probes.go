package main

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"time"

	"repro/pktbuf"
	"repro/pktbuf/packet"
	"repro/pktbuf/serve/wire"
	"repro/pktbuf/sim"
)

// Probes price one layer each with a small fixed stimulus, from this
// side of the layer's public functions. They run in every traced run,
// whatever the workload, so a ledger always has every line.

const (
	// The probes run in rounds — every probe a few repetitions per
	// round — so each probe's samples span the whole probe phase (a
	// few seconds) and not one host mode; the figure is quietLowest
	// of all of a probe's repetitions.
	probeRounds  = 6
	probeReps    = 6
	probeMinWork = 2 * time.Millisecond // a repetition is sized to last at least this
	probeSeed    = 1                    // probes price code, not inputs: one fixed stimulus
)

// timedProbe is one prepared probe: rep does one repetition and
// returns its figure (ns per unit unless stated otherwise).
type timedProbe struct {
	name string
	rep  func() (float64, error)
}

// wallProbe prepares a probe of f, which does `units` units of work
// per call: a repetition is enough calls to outlast probeMinWork, and
// its figure is wall ns per unit. f is first run untimed.
func wallProbe(name string, units int, f func() error) (timedProbe, error) {
	if err := f(); err != nil {
		return timedProbe{}, err
	}
	run := func(n int) (time.Duration, error) {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			if err := f(); err != nil {
				return 0, err
			}
		}
		return time.Since(t0), nil
	}
	inner := 1
	for {
		d, err := run(inner)
		if err != nil {
			return timedProbe{}, err
		}
		if d >= probeMinWork {
			break
		}
		inner *= 2
	}
	return timedProbe{name, func() (float64, error) {
		d, err := run(inner)
		return float64(d.Nanoseconds()) / float64(inner*units), err
	}}, nil
}

// probeLayers prepares and runs every probe. A probe that cannot run
// is a failed benchmark: the ledger must not silently lose a line.
func probeLayers() (map[string]float64, error) {
	layer := map[string]float64{}
	var probes []timedProbe
	var cleanup []func()
	defer func() {
		for _, f := range cleanup {
			f()
		}
	}()
	for _, prepare := range []func(map[string]float64) ([]timedProbe, func(), error){
		pktbufProbes, simProbes, packetProbes, wireProbes, netProbe, routerProbes,
	} {
		ps, done, err := prepare(layer)
		if done != nil {
			cleanup = append(cleanup, done)
		}
		if err != nil {
			return nil, fmt.Errorf("probe: %w", err)
		}
		probes = append(probes, ps...)
	}
	reps := map[string][]float64{}
	for round := 0; round < probeRounds; round++ {
		for _, p := range probes {
			for r := 0; r < probeReps; r++ {
				v, err := p.rep()
				if err != nil {
					return nil, fmt.Errorf("probe %s: %w", p.name, err)
				}
				reps[p.name] = append(reps[p.name], v)
			}
		}
	}
	for name, vs := range reps {
		layer[name] = quietLowest(vs)
	}
	layer[mPktbufSnapshotMS] /= 1e6 // probed in ns
	layer[mPktbufRestoreMS] /= 1e6
	layer[mRouterBufferShare] = routerPorts * layer[mPktbufTickNS] / layer[mRouterStepNS]
	layer[mRouterDefaultOverSer] = layer[routerDefaultStepNS] / layer[mRouterStepNS]
	delete(layer, routerDefaultStepNS)
	return layer, nil
}

// routerDefaultStepNS is the default engine's ns per slot: an
// intermediate of router.default_over_serial, not a metric.
const routerDefaultStepNS = "router.default_step_ns_per_slot"

// steadyBuffer builds a buffer and its cyclic dense stimulus, queues
// pre-loaded as buffer_dense does.
func steadyBuffer(cfg pktbuf.Config, batch int) (*pktbuf.Buffer, []pktbuf.Input, []pktbuf.Output, error) {
	buf, err := pktbuf.New(cfg)
	if err != nil {
		return nil, nil, nil, err
	}
	steady, fill := denseStimulus(probeSeed, cfg.Queues, batch)
	out := make([]pktbuf.Output, batch)
	for i := 0; i < denseFill*max(1, cfg.Queues/batch); i++ {
		if _, err := buf.TickBatch(fill, out); err != nil {
			return nil, nil, nil, err
		}
	}
	return buf, steady, out, nil
}

// probeSet collects prepared probes; add takes wallProbe's results.
type probeSet []timedProbe

func (ps *probeSet) add(p timedProbe, err error) error {
	*ps = append(*ps, p)
	return err
}

func pktbufProbes(layer map[string]float64) ([]timedProbe, func(), error) {
	var ps probeSet
	add := ps.add
	dense := newDenseWorkload(probeSeed).cfg
	// The fused kernel at buffer_dense's shape, and at the daemon's
	// (Q=64, the serving loop's default batch of 256).
	for _, p := range []struct {
		name  string
		cfg   pktbuf.Config
		batch int
	}{
		{mPktbufTickBatchNS, dense, denseBatch},
		{mPktbufTickBatchQ64NS, daemonBuffer, 256},
	} {
		buf, in, out, err := steadyBuffer(p.cfg, p.batch)
		if err != nil {
			return nil, nil, err
		}
		if err := add(wallProbe(p.name, p.batch, func() error {
			_, err := buf.TickBatch(in, out)
			return err
		})); err != nil {
			return nil, nil, err
		}
	}
	// Slot at a time, at a router port's shape: what router_* pays
	// eight times per slot.
	portCfg := routerBuffer
	portCfg.Queues = routerPorts * routerClasses
	buf, in, _, err := steadyBuffer(portCfg, 256)
	if err != nil {
		return nil, nil, err
	}
	if err := add(wallProbe(mPktbufTickNS, len(in), func() error {
		for i := range in {
			if _, err := buf.Tick(in[i]); err != nil {
				return err
			}
		}
		return nil
	})); err != nil {
		return nil, nil, err
	}
	// An idle slot that is ticked, not fast-forwarded: what the daemon
	// pays per slot it advances without a cell.
	idle, err := pktbuf.New(daemonBuffer)
	if err != nil {
		return nil, nil, err
	}
	if err := add(wallProbe(mPktbufIdleTickNS, 256, func() error {
		for i := 0; i < 256; i++ {
			if _, err := idle.Tick(pktbuf.Input{Arrival: pktbuf.None, Request: pktbuf.None}); err != nil {
				return err
			}
		}
		return nil
	})); err != nil {
		return nil, nil, err
	}
	// Snapshot and restore of a loaded buffer (what a checkpointing
	// daemon pays).
	loaded, _, _, err := steadyBuffer(dense, denseBatch)
	if err != nil {
		return nil, nil, err
	}
	var snap bytes.Buffer
	if err := add(wallProbe(mPktbufSnapshotMS, 1, func() error {
		snap.Reset()
		return loaded.Snapshot(&snap)
	})); err != nil {
		return nil, nil, err
	}
	layer[mPktbufSnapshotMB] = float64(snap.Len()) / (1 << 20)
	err = add(wallProbe(mPktbufRestoreMS, 1, func() error {
		_, err := pktbuf.Restore(bytes.NewReader(snap.Bytes()), dense)
		return err
	}))
	return ps, nil, err
}

func simProbes(map[string]float64) ([]timedProbe, func(), error) {
	var ps probeSet
	add := ps.add
	// Runner.RunBatch over the dense pattern: generator adapters and
	// the slot loop on top of Tick.
	dense := newDenseWorkload(probeSeed).cfg
	buf, _, _, err := steadyBuffer(dense, denseBatch)
	if err != nil {
		return nil, nil, err
	}
	arr, err := sim.NewRoundRobinArrivals(dense.Queues, 1.0)
	if err != nil {
		return nil, nil, err
	}
	req, err := sim.NewRoundRobinDrain(dense.Queues)
	if err != nil {
		return nil, nil, err
	}
	const slots = 4096
	runner := func(name string, r *sim.Runner, batch uint64) error {
		return add(wallProbe(name, slots, func() error {
			res, err := r.RunBatch(slots, batch)
			if err == nil && !res.Clean() {
				err = fmt.Errorf("RunBatch not clean: %+v", res.Stats)
			}
			return err
		}))
	}
	if err := runner(mSimRunBatchNS, &sim.Runner{Buffer: buf, Arrivals: arr, Requests: req}, 0); err != nil {
		return nil, nil, err
	}
	// The round-robin drain policy under sparse load at Q=1024: its
	// scan for a requestable queue is O(Q) when almost all are empty.
	sparse := newSparseWorkload(probeSeed).cfg
	sbuf, err := pktbuf.New(sparse)
	if err != nil {
		return nil, nil, err
	}
	sarr, err := sim.NewBernoulliArrivals(sparse.Queues, sparseLoad, probeSeed)
	if err != nil {
		return nil, nil, err
	}
	sreq, err := sim.NewRoundRobinDrain(sparse.Queues)
	if err != nil {
		return nil, nil, err
	}
	if err := runner(mSimRRDrainNS, &sim.Runner{Buffer: sbuf, Arrivals: sarr, Requests: sreq}, 1); err != nil {
		return nil, nil, err
	}
	// The arrival generator alone.
	uni, err := sim.NewUniformArrivals(dense.Queues, 1.0, probeSeed)
	if err != nil {
		return nil, nil, err
	}
	slot := uint64(0)
	err = add(wallProbe(mSimArrivalsNS, slots, func() error {
		for i := 0; i < slots; i++ {
			if q := uni.Next(slot); q < 0 || int(q) >= dense.Queues {
				return fmt.Errorf("uniform arrivals drew queue %d at full load", q)
			}
			slot++
		}
		return nil
	}))
	return ps, nil, err
}

func packetProbes(map[string]float64) ([]timedProbe, func(), error) {
	// 576-byte packets: 11 cells each.
	payload := make([]byte, 576)
	per := packet.CellCount(len(payload))
	const packets = 256
	var seg packet.Segmenter
	cells := make([]packet.Cell, 0, packets*per)
	segment, err := wallProbe(mPacketSegmentNS, packets*per, func() error {
		cells = cells[:0]
		for i := 0; i < packets; i++ {
			cells = seg.SegmentAppend(cells, packet.Packet{Flow: pktbuf.Queue(i % 16), Payload: payload})
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	re := packet.NewReassembler()
	reassemble, err := wallProbe(mPacketReassembleNS, packets*per, func() error {
		done := 0
		for _, c := range cells {
			_, ok, err := re.Push(c)
			if err != nil {
				return err
			}
			if ok {
				done++
			}
		}
		if done != packets {
			return fmt.Errorf("reassembled %d of %d packets", done, packets)
		}
		return nil
	})
	return []timedProbe{segment, reassemble}, nil, err
}

// wireFrame is the probes' frame: one closedBurst of cells.
func wireFrame() []pktbuf.Queue {
	qs := make([]pktbuf.Queue, closedBurst)
	for i, p := range flowPicks(probeSeed, 0, serveFlows, closedBurst) {
		qs[i] = pktbuf.Queue(p)
	}
	return qs
}

func wireProbes(layer map[string]float64) ([]timedProbe, func(), error) {
	qs := wireFrame()
	const frames = 64
	var enc bytes.Buffer
	w := wire.NewWriter(&enc)
	encode, err := wallProbe(mWireEncodeNS, frames*len(qs), func() error {
		enc.Reset()
		for i := 0; i < frames; i++ {
			if err := w.WriteCells(wire.TSubmit, wire.Arrivals, qs); err != nil {
				return err
			}
		}
		return w.Flush()
	})
	if err != nil {
		return nil, nil, err
	}
	layer[mWireBytesPerCell] = float64(enc.Len()) / float64(frames*len(qs))
	encoded := append([]byte(nil), enc.Bytes()...)
	decode, err := wallProbe(mWireDecodeNS, frames*len(qs), func() error {
		r := wire.NewReader(bytes.NewReader(encoded))
		n := 0
		for i := 0; i < frames; i++ {
			_, payload, err := r.Next()
			if err != nil {
				return err
			}
			if err := wire.DecodeCells(payload, wire.Arrivals, func(pktbuf.Queue) error { n++; return nil }); err != nil {
				return err
			}
		}
		if n != frames*len(qs) {
			return fmt.Errorf("decoded %d of %d cells", n, frames*len(qs))
		}
		return nil
	})
	return []timedProbe{encode, decode}, nil, err
}

// netProbe prices the loopback socket under serve_*: frames the size
// of a closedBurst go to an echo peer and come back, through no repo
// code. The figure is CPU time in µs per cell for one endpoint's share
// (one write and one read per frame), which is what the daemon pays
// per Submit frame in and Deliver frame out.
func netProbe(map[string]float64) ([]timedProbe, func(), error) {
	var enc bytes.Buffer
	w := wire.NewWriter(&enc)
	if err := w.WriteCells(wire.TSubmit, wire.Arrivals, wireFrame()); err != nil {
		return nil, nil, err
	}
	if err := w.Flush(); err != nil {
		return nil, nil, err
	}
	frame := enc.Bytes()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, fmt.Errorf("loopback: %w", err)
	}
	defer lis.Close() // one connection is all it serves
	echoDone := make(chan struct{})
	go func() {
		defer close(echoDone)
		c, err := lis.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		// Echo until the probe side closes; an error here surfaces there
		// as a short read.
		_, _ = io.Copy(c, c)
	}()
	c, err := net.DialTimeout("tcp", lis.Addr().String(), 5*time.Second)
	if err != nil {
		return nil, nil, fmt.Errorf("loopback: %w", err)
	}
	cleanup := func() {
		c.Close()
		<-echoDone
	}
	// Eight frames in flight, like a closed-loop connection.
	const frames, depth = 512, 8
	back := make([]byte, len(frame))
	rep := func() (float64, error) {
		if err := c.SetDeadline(time.Now().Add(10 * time.Second)); err != nil {
			return 0, fmt.Errorf("loopback: %w", err)
		}
		cpu0 := selfCPU()
		sent := 0
		for ; sent < depth; sent++ {
			if _, err := c.Write(frame); err != nil {
				return 0, fmt.Errorf("loopback: %w", err)
			}
		}
		for got := 0; got < frames; got++ {
			if _, err := io.ReadFull(c, back); err != nil {
				return 0, fmt.Errorf("loopback: %w", err)
			}
			if sent < frames {
				if _, err := c.Write(frame); err != nil {
					return 0, fmt.Errorf("loopback: %w", err)
				}
				sent++
			}
		}
		// Both endpoints are in this process: halve.
		return float64(selfCPU()-cpu0) / 2 / 1e3 / float64(frames*closedBurst), nil
	}
	if _, err := rep(); err != nil {
		return nil, cleanup, err
	}
	return []timedProbe{{mNetLoopbackUS, rep}}, cleanup, nil
}

// routerProbes price a router slot under router_serial's traffic
// (Offer per packet, StepBatch per slot) and, for the same-run ratio,
// the default engine's slot.
func routerProbes(map[string]float64) ([]timedProbe, func(), error) {
	var ps []timedProbe
	var ws []*routerWorkload
	cleanup := func() {
		for _, w := range ws {
			_ = w.finish() // no windows: nothing to check, just Close
		}
	}
	for _, serial := range []bool{true, false} {
		w := newRouterWorkload(probeSeed, serial)
		w.warmCycles = 1
		ws = append(ws, w)
		if err := w.setup(); err != nil {
			return nil, cleanup, err
		}
		// One repetition steps 16 calls with spans on and reads the two
		// costs off the spans.
		var offerNS float64
		stepRep := func() (float64, error) {
			offered0 := w.offered
			tr := newTracer()
			const calls = 16
			for c := 0; c < calls; c++ {
				if err := w.step(tr, 0, 0); err != nil {
					return 0, err
				}
			}
			var offer, step int64
			for _, s := range tr.spans {
				if s.Name == spanRouterOffer {
					offer += s.EndNS - s.StartNS
				} else {
					step += s.EndNS - s.StartNS
				}
			}
			offerNS = float64(offer) / float64(max(1, w.offered-offered0))
			return float64(step) / (calls * routerStep), nil
		}
		if serial {
			ps = append(ps,
				timedProbe{mRouterStepNS, stepRep},
				timedProbe{mRouterOfferNS, func() (float64, error) { return offerNS, nil }})
		} else {
			ps = append(ps, timedProbe{routerDefaultStepNS, stepRep})
		}
	}
	return ps, cleanup, nil
}
