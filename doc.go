// Package repro is a full reproduction of "Design and Implementation
// of High-Performance Memory Systems for Future Packet Buffers"
// (García, Corbal, Cerdà, Valero — MICRO-36, 2003).
//
// The public API is the repro/pktbuf tree: repro/pktbuf (the buffer:
// Tick/TickBatch, typed sentinel errors, sizing and the technology
// model), repro/pktbuf/packet (cell segmentation and reassembly),
// repro/pktbuf/router (the Figure-1 router engine),
// repro/pktbuf/sim (the batched simulation driver and the workload
// generators) and repro/pktbuf/trace (slot-trace record and replay).
// The substrates (DRAM banking, shared SRAM organizations, MMAs, the
// DRAM Scheduler Subsystem, queue renaming, the CACTI-style
// technology model and the experiment generators) live under
// repro/internal and are implementation detail; examples and the
// pktbufsim harness consume only the public surface, and
// api_surface_test.go pins the exported API against a golden
// snapshot. See README.md for the map; internal/experiments and its
// tests hold the paper-versus-measured record, and the benchmarks in
// bench_test.go regenerate every table and figure of the paper's
// evaluation.
//
// # Dense-arena hot path
//
// The simulator is slot-accurate: one core.Buffer.Tick per cell time.
// All per-queue state on that path — tail-SRAM deques, sequence
// cursors, occupancy ledgers, SRAM queue tables, DRAM reservation
// cursors and renaming registers — lives in dense slices indexed by
// the queue ordinal, sized from the configuration at construction
// (logical ids are [0, Q); physical ids are [0, P) because the §6
// renaming table hands out register-bounded ordinals). DRAM→SRAM
// completions are scheduled on a fixed slot ring, and block payload
// storage is pooled, so steady-state Tick performs no hashing and no
// allocation. BENCH_baseline.json records the gate: the BenchmarkTick*
// suite must stay ≥2× under the map-keyed seed at 0 allocs/op.
//
// # Bitmap selection indices
//
// Selection decisions are decoupled from the queue count: instead of
// scanning Q occupancy counters (TailMMA, MDQF) or re-walking the
// Q(b−1)+1-slot lookahead (ECQF) every b slots, the MMA layer keeps
// incrementally maintained hierarchical bitmaps (repro/internal/bitset
// — multi-level find-first-set indices in the O(1)-scheduler style):
// ECQF tracks the lookahead slot at which each queue turns critical,
// the tail and deficit selectors bucket queues by exact occupancy, and
// the DRAM publishes its per-queue "readable now" eligibility as a
// dense bitset the selectors consult instead of per-candidate
// callbacks. Selections are bit-identical to the linear-scan
// references (SelectScan, kept in the mma package's test files), which
// seeded differential tests pin over 10⁵-slot random workloads; BenchmarkTickQueueScaling holds per-slot
// cost near-flat from Q=64 to Q=65536 (BENCH_baseline.json,
// bitmap_index_pr4).
//
// # Batched simulation driver
//
// repro/pktbuf/sim's Runner is the module's one slot-loop driver;
// cmd/pktbufsim, the §5 guarantee validation
// (experiments.ValidateGuarantees) and the root tests all run it.
// Runner.RunBatch(slots, batch) is the long-run fast path: it chunks
// the slot loop, generates arrivals a chunk at a time for
// sim.BatchArrivalProcess implementations (every generator the
// package constructs), resolves the delivery-callback and
// drop-tolerance branches per batch, and snapshots statistics once
// per run. cmd/pktbufsim exposes it as
// -batch; Runner.Run is the batch-size-1 special case. For
// precomputed stimulus, pktbuf.Buffer.TickBatch is the batch entry
// point. BenchmarkPktbuf* in facade_bench_test.go holds both within
// ~1% of the slot-at-a-time core suite at zero allocations per slot.
//
// # Event-driven idle time (sparse fast-forward)
//
// Idle time is O(1), not O(slots). Buffer.Quiescent reports that an
// idle tick would be a pure time advance — request pipeline and
// completion calendar empty, Requests Register empty, neither MMA
// with a transfer to order; note this is about in-flight work, not
// occupancy, so a buffer holding unrequested cells is quiescent.
// Buffer.FastForward(n) then advances the clock n slots in O(1),
// bit-identically to n idle Ticks: ring indices and the MMA cycle
// phase follow the clock analytically, and the elided DSA cycles are
// credited to the scheduler's empty-cycle count. The only trace a
// jump leaves is Stats.FastForwardedSlots, which dense ticking keeps
// at zero by definition — equivalence comparisons exclude it.
// pktbuf.Buffer.TickBatch scans each run of fully idle inputs once and
// skips it with one FastForward as soon as the buffer is quiescent,
// writing zero outputs. The sim
// Runner skips idle spans entirely when the arrival process can jump
// to its next arrival (SparseArrivalProcess; NewBernoulliArrivals
// draws geometric gaps, one RNG call per arrival) and the request
// policy is idle-stable (StableRequestPolicy), making a load-ρ run
// cost O(ρ·slots); router.Engine.StepBatch fast-forwards every port's
// buffer once every port is quiescent. Fast-forwarding
// engages only when idle gaps outlast the request pipeline
// (lookahead + latency register), so sparse deployments shorten it
// via the Lookahead/LatencySlots overrides. Seeded differential
// suites (internal/core/fastforward_test.go and the runner/router
// equivalents) pin jump ≡ tick bit-identically across ECQF/MDQF,
// b ∈ {1,2,4,8}, bounded and unbounded DRAM, and every cycle phase;
// BENCH_baseline.json (sparse_ff_pr5) records ≥14× per-slot cost
// reduction at ρ=0.01 against the dense reference at the same load.
//
// # One slot body
//
// The engine has one implementation of the paper's per-slot datapath
// (land DRAM→SRAM transfers, arrival, request into the lookahead,
// delivery, t-MMA/h-MMA, DSA): core.Buffer.Tick. The one batch loop
// is pktbuf.Buffer.TickBatch, written over the public Input/Output
// slices: it calls core's Tick once per ticked slot and adds the
// output-length check, the idle-run fast-forward above, and the
// stop-after-the-offending-slot error contract, with no scratch
// between façade and core. A second, structure-of-arrays "fused
// kernel" once ran behind TickBatch; it measured no faster than the
// slot body and was deleted. Its differential suite
// (internal/core/kernel_test.go) now pins TickBatch ≡ per-slot Tick —
// statistics included, FastForwardedSlots excluded — across MMAs,
// granularities, DRAM bounds and renaming, including batch boundaries
// and error slots. What the fused kernel won in shared
// code remains: per-queue counters in dense parallel arrays, the
// bitset Set early exit, DRAM power-of-two masks; cmd/benchcheck still
// gates the slot-at-a-time rows of BENCH_baseline.json
// (fused_kernel_pr6) at +25%.
//
// # Router engine
//
// repro/pktbuf/router promotes the paper's system context (Figure 1)
// to the public surface: one VOQ buffer per input port, an iSLIP
// request-grant-accept fabric scheduler, and reassembly at the
// outputs. The engine is serial — a slot is one scheduler exchange
// and then every port's ingress, buffer tick and fabric crossing in
// input order, on the caller's goroutine — because a line card's work
// between two exchanges (~400 ns) is too fine a grain for a goroutine
// hand-off: every sharded variant measured slower (README, "Why the
// engine is serial"). The scheduler works on per-output request
// bitmasks that port ticks keep current incrementally, per-cell
// metadata lives in dense per-VOQ deques (the core's arena
// discipline), and egress lands in a per-batch payload arena, so the
// steady state is 0 allocs/op. Differential tests pin batch ≡
// slot-by-slot stepping and bitmask ≡ matrix iSLIP; cmd/pktbufsim
// -router -ports N drives the engine from the CLI, and go run
// ./benchmark -workload router_serial is its end-to-end reading.
//
// # Machine-checked contracts
//
// The invariants above are enforced by repo-specific static analysis
// (repro/internal/analysis, driven by cmd/pktbufvet standalone or via
// go vet -vettool). Three comment directives carry the contracts in
// the source itself: //pktbuf:hotpath on a function declaration
// asserts the allocation-free discipline (no map/channel traffic, no
// append, no closures, no interface boxing — and, via the escape
// gate over go build -gcflags=-m, no new heap escapes beyond the
// reviewed baseline in testdata/escapes_baseline.txt);
// //pktbuf:owner=<func> on a struct field asserts the single-writer
// discipline the serving loop and SPSC rings rely on, checked over
// the call graph with atomic Loads exempt; and //pktbuf:allow
// <analyzer> <reason> waives one finding on one line, reason
// mandatory. Two more analyzers need no annotations: errwrap pins the
// error-taxonomy rule (everything returned across the public
// repro/pktbuf API matches a typed sentinel under errors.Is) and
// publicapi pins the façade rule (examples and commands build on the
// public surface only). CI keeps the whole tree at zero findings; see
// README.md "Static analysis".
package repro
