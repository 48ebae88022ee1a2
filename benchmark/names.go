package main

// Workload and metric names are the benchmark's stable API: later PRs
// diff runs by these strings and BENCHMARK.json declares them.
// TestNamesAgreeWithBenchmarkJSON keeps this file and BENCHMARK.json
// name-for-name identical.

// Workloads, in the fixed order every round runs them.
const (
	wServeClosed   = "serve_closed"
	wServePaced    = "serve_paced"
	wBufferDense   = "buffer_dense"
	wBufferSparse  = "buffer_sparse"
	wRouterSerial  = "router_serial"
	wRouterDefault = "router_default"
)

var workloadNames = []string{
	wServeClosed, wServePaced, wBufferDense, wBufferSparse, wRouterSerial, wRouterDefault,
}

// End-to-end metrics: defined on every workload (see README.md for
// what each means per workload).
const (
	mSetupS     = "setup_s"
	mCellsPerS  = "cells_per_s"
	mLatencyP50 = "latency_p50_us"
	mLatencyP99 = "latency_p99_us"
	mCPUPerCell = "cpu_us_per_cell"
	mMemMB      = "mem_mb"
)

// Directions a metric can improve in.
const (
	betterLower  = "lower"
	betterHigher = "higher"
)

// Per-layer metrics (traced run), prefixed with the layer they price.
const (
	mPktbufTickBatchNS    = "pktbuf.tickbatch_ns_per_slot"
	mPktbufTickBatchQ64NS = "pktbuf.tickbatch_q64_ns_per_slot"
	mPktbufTickNS         = "pktbuf.tick_ns_per_slot"
	mPktbufIdleTickNS     = "pktbuf.idle_tick_ns"
	mPktbufSnapshotMS     = "pktbuf.snapshot_ms"
	mPktbufRestoreMS      = "pktbuf.restore_ms"
	mPktbufSnapshotMB     = "pktbuf.snapshot_mb"
	mPktbufSlotsPerS      = "pktbuf.slots_per_s"
	mPktbufFFShare        = "pktbuf.ff_share"
	mPktbufBypassShare    = "pktbuf.bypass_share"
	mPktbufAllocsPerKSlot = "pktbuf.allocs_per_kslot"
	mPktbufMisses         = "pktbuf.misses"
	mPktbufDrops          = "pktbuf.drops"
	mPktbufBadRequests    = "pktbuf.bad_requests"
	mPktbufTailHeadroom   = "pktbuf.tail_sram_headroom"
	mPktbufHeadHeadroom   = "pktbuf.head_sram_headroom"
	mPktbufRRHeadroom     = "pktbuf.rr_headroom"
	mPktbufRRSkipsMax     = "pktbuf.rr_skips_max"

	mSimRunBatchNS = "sim.runbatch_ns_per_slot"
	mSimRRDrainNS  = "sim.rr_drain_ns_per_slot"
	mSimArrivalsNS = "sim.arrivals_ns_per_slot"

	mPacketSegmentNS    = "packet.segment_ns_per_cell"
	mPacketReassembleNS = "packet.reassemble_ns_per_cell"

	mRouterOfferNS        = "router.offer_ns_per_packet"
	mRouterStepNS         = "router.step_ns_per_slot"
	mRouterBufferShare    = "router.buffer_share"
	mRouterDefaultOverSer = "router.default_over_serial"
	mRouterSlotsPerS      = "router.slots_per_s"
	mRouterCellsPerSlot   = "router.cells_per_slot"
	mRouterMatchShare     = "router.match_share"
	mRouterRefusedShare   = "router.refused_share"
	mRouterBacklogMax     = "router.ingress_backlog_max"
	mRouterAllocsPerKSlot = "router.allocs_per_kslot"

	mWireEncodeNS     = "wire.encode_ns_per_cell"
	mWireDecodeNS     = "wire.decode_ns_per_cell"
	mWireBytesPerCell = "wire.bytes_per_cell"

	mServeCPUPerCell     = "serve.cpu_us_per_cell"
	mServeSlotsPerCell   = "serve.slots_per_cell"
	mServeEngineUSPerCel = "serve.engine_us_per_cell"
	mServeEngineBusy     = "serve.engine_busy_share"
	mServeBatchSlotsMean = "serve.batch_slots_mean"
	mServeFFShare        = "serve.ff_share"
	mServeRejIngressFull = "serve.reject_share_ingress_full"
	mServeRejWindowFull  = "serve.reject_share_window_full"
	mServeTickErrors     = "serve.tick_errors"
	mServeCtxPerKCell    = "serve.ctx_switches_per_kcell"
	mServeRSSMB          = "serve.rss_mb"
	mServeLedgerResidual = "serve.ledger_residual_us_per_cell"

	mClientCPUPerCell  = "client.cpu_us_per_cell"
	mClientSubmitBlock = "client.submit_block_share"
	mClientLatencyP90  = "client.latency_p90_us"
	mClientLatencyP99  = "client.latency_p99_us"
	mClientLatencyP999 = "client.latency_p999_us"
	mClientStallMaxMS  = "client.stall_max_ms"
	mClientInflight    = "client.inflight_mean"

	mNetLoopbackUS = "net.loopback_us_per_cell"

	mHarnessBuildS        = "harness.build_s"
	mHarnessGenLateP99    = "harness.gen_late_p99_us"
	mHarnessWindowIQR     = "harness.window_iqr_share"
	mHarnessDisturbance   = "harness.host_disturbance_share"
	mHarnessTraceOverhead = "harness.trace_overhead_share"
	mHarnessFailedShare   = "harness.failed_share"
	mHarnessSpans         = "harness.spans"
)

// metricDef is one declared metric; bound is the regression bound of
// an end-to-end metric as a share of the parent's median (per-layer
// metrics have none).
type metricDef struct {
	name, unit, better string
	bound              float64
}

var endToEndMetrics = []metricDef{
	{mSetupS, "s", betterLower, 0.25},
	{mCellsPerS, "1/s", betterHigher, 0.25},
	{mLatencyP50, "us", betterLower, 0.25},
	{mCPUPerCell, "us", betterLower, 0.25},
	{mMemMB, "MB", betterLower, 0.15},
}

var perLayerMetrics = []metricDef{
	{mPktbufTickBatchNS, "ns", betterLower, 0},
	{mPktbufTickBatchQ64NS, "ns", betterLower, 0},
	{mPktbufTickNS, "ns", betterLower, 0},
	{mPktbufIdleTickNS, "ns", betterLower, 0},
	{mPktbufSnapshotMS, "ms", betterLower, 0},
	{mPktbufRestoreMS, "ms", betterLower, 0},
	{mPktbufSnapshotMB, "MB", betterLower, 0},
	{mPktbufSlotsPerS, "1/s", betterHigher, 0},
	{mPktbufFFShare, "share", betterHigher, 0},
	{mPktbufBypassShare, "share", betterHigher, 0},
	{mPktbufAllocsPerKSlot, "count", betterLower, 0},
	{mPktbufMisses, "count", betterLower, 0},
	{mPktbufDrops, "count", betterLower, 0},
	{mPktbufBadRequests, "count", betterLower, 0},
	{mPktbufTailHeadroom, "cells", betterHigher, 0},
	{mPktbufHeadHeadroom, "cells", betterHigher, 0},
	{mPktbufRRHeadroom, "count", betterHigher, 0},
	{mPktbufRRSkipsMax, "count", betterLower, 0},

	{mSimRunBatchNS, "ns", betterLower, 0},
	{mSimRRDrainNS, "ns", betterLower, 0},
	{mSimArrivalsNS, "ns", betterLower, 0},

	{mPacketSegmentNS, "ns", betterLower, 0},
	{mPacketReassembleNS, "ns", betterLower, 0},

	{mRouterOfferNS, "ns", betterLower, 0},
	{mRouterStepNS, "ns", betterLower, 0},
	{mRouterBufferShare, "share", betterLower, 0},
	{mRouterDefaultOverSer, "ratio", betterLower, 0},
	{mRouterSlotsPerS, "1/s", betterHigher, 0},
	{mRouterCellsPerSlot, "cells", betterHigher, 0},
	{mRouterMatchShare, "share", betterHigher, 0},
	{mRouterRefusedShare, "share", betterLower, 0},
	{mRouterBacklogMax, "cells", betterLower, 0},
	{mRouterAllocsPerKSlot, "count", betterLower, 0},

	{mWireEncodeNS, "ns", betterLower, 0},
	{mWireDecodeNS, "ns", betterLower, 0},
	{mWireBytesPerCell, "bytes", betterLower, 0},

	{mServeCPUPerCell, "us", betterLower, 0},
	{mServeSlotsPerCell, "slots", betterLower, 0},
	{mServeEngineUSPerCel, "us", betterLower, 0},
	{mServeEngineBusy, "share", betterLower, 0},
	{mServeBatchSlotsMean, "slots", betterHigher, 0},
	{mServeFFShare, "share", betterHigher, 0},
	{mServeRejIngressFull, "share", betterLower, 0},
	{mServeRejWindowFull, "share", betterLower, 0},
	{mServeTickErrors, "count", betterLower, 0},
	{mServeCtxPerKCell, "count", betterLower, 0},
	{mServeRSSMB, "MB", betterLower, 0},
	{mServeLedgerResidual, "us", betterLower, 0},

	{mClientCPUPerCell, "us", betterLower, 0},
	{mClientSubmitBlock, "share", betterLower, 0},
	{mClientLatencyP90, "us", betterLower, 0},
	{mClientLatencyP99, "us", betterLower, 0},
	{mClientLatencyP999, "us", betterLower, 0},
	{mClientStallMaxMS, "ms", betterLower, 0},
	{mClientInflight, "cells", betterLower, 0},

	{mNetLoopbackUS, "us", betterLower, 0},

	{mHarnessBuildS, "s", betterLower, 0},
	{mHarnessGenLateP99, "us", betterLower, 0},
	{mHarnessWindowIQR, "share", betterLower, 0},
	{mHarnessDisturbance, "share", betterLower, 0},
	{mHarnessTraceOverhead, "share", betterLower, 0},
	{mHarnessFailedShare, "share", betterLower, 0},
	{mHarnessSpans, "count", betterHigher, 0},
}
