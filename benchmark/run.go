package main

import (
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"time"
)

// window is one measurement window of a workload: 50 ms of wall time
// (serve) or 50–200 ms of fixed work (in-process). endToEnd reduces a
// run's windows to the end-to-end figures.
type window struct {
	wallNS int64
	cpuNS  int64  // CPU time of the system under test
	cells  uint64 // cells delivered
	slots  uint64 // simulated slots (in-process only)
	lat    *hist  // per-cell (serve) or per-call (in-process) latency
	traced bool   // recorded while spans were on
}

// workload is one of the six benchmark workloads. The harness calls
// setup once per measured set-up, measure one or more times, then
// finish exactly once (also after a failed setup or measure, to
// release what was built).
type workload interface {
	// setup builds the system under test and runs the fixed-work
	// warm-up.
	setup() error
	// measure runs the workload for about d, appending windows; with tr
	// non-nil it records spans around the calls into each layer.
	measure(d time.Duration, tr *tracer) error
	// finish tears the system down and runs the output checks.
	finish() error
	// outcome reports what was measured.
	outcome() *outcome
}

// outcome is what a workload hands back after finish.
type outcome struct {
	windows   []window
	attempted uint64 // cells submitted / slots simulated / packets offered
	failed    uint64
	memMB     float64
	// counters are the simulated results at a fixed point of the run
	// (after warm-up and the first fixed-work window); for a given seed
	// they repeat exactly.
	counters map[string]uint64
	// layer holds the per-layer metrics the workload itself produced.
	layer map[string]float64
}

// result is one workload's part of the output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	// Counters is omitted in the single-workload (driver) form, whose
	// key set is fixed by contract.
	Counters map[string]uint64 `json:"counters,omitempty"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// newWorkload builds the named workload for a seed.
func newWorkload(name string, seed int64, env *environment) (workload, error) {
	switch name {
	case wServeClosed:
		return newServeWorkload(seed, false, env), nil
	case wServePaced:
		return newServeWorkload(seed, true, env), nil
	case wBufferDense:
		return newDenseWorkload(seed), nil
	case wBufferSparse:
		return newSparseWorkload(seed), nil
	case wRouterSerial:
		return newRouterWorkload(seed, true), nil
	case wRouterDefault:
		return newRouterWorkload(seed, false), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
}

// setupRepeats is how many times one run sets a workload up; setup_s
// is their lower quartile: interference only ever adds to a set-up
// (the host's slow mode nearly doubles one), so the low end repeats
// from run to run where the median of so few does not, and one lucky
// outlier still does not decide it.
const setupRepeats = 5

// runWorkloads runs the named workloads for seconds each, in rounds:
// every round gives each workload one slice, so with several workloads
// each one samples the whole run and not one host mode. It returns one
// result per workload, in order.
func runWorkloads(names []string, seed int64, seconds float64, rounds int, traced bool, env *environment) ([]result, error) {
	ws := make([]workload, len(names))
	// Whatever fails below, nothing that was set up stays behind. (A
	// finish error here would only follow the error already returned.)
	defer func() {
		for _, w := range ws {
			if w != nil {
				_ = w.finish()
			}
		}
	}()
	setupS := make([]float64, len(names))
	for i, name := range names {
		var times []float64
		for rep := 0; rep < setupRepeats; rep++ {
			w, err := newWorkload(name, seed, env)
			if err != nil {
				return nil, err
			}
			ws[i] = w
			t0 := time.Now()
			if err := w.setup(); err != nil {
				return nil, fmt.Errorf("%s: setup: %w", name, err)
			}
			times = append(times, time.Since(t0).Seconds())
			if rep < setupRepeats-1 {
				ws[i] = nil
				if err := w.finish(); err != nil {
					return nil, fmt.Errorf("%s: teardown between set-ups: %w", name, err)
				}
			}
		}
		setupS[i] = quantile(times, 0.25)
	}
	// A traced run alternates untraced and traced slices of the same
	// set-up, so the tracing overhead is a same-run ratio — in slices of
	// half a second, so that both kinds see the same host modes.
	var tr *tracer
	slices := rounds
	if traced {
		tr = newTracer()
		slices = 2 * max(2, int(seconds+0.5), (rounds+1)/2)
	}
	per := time.Duration(seconds / float64(slices) * float64(time.Second))
	for s := 0; s < slices; s++ {
		for i, w := range ws {
			var sliceTr *tracer
			if s%2 == 1 {
				sliceTr = tr
			}
			if err := w.measure(per, sliceTr); err != nil {
				return nil, fmt.Errorf("%s: measure: %w", names[i], err)
			}
		}
	}
	var probed map[string]float64
	if traced {
		var err error
		if probed, err = probeLayers(); err != nil {
			return nil, err
		}
	}
	results := make([]result, len(names))
	for i, w := range ws {
		ws[i] = nil
		if err := w.finish(); err != nil {
			return nil, fmt.Errorf("%s: %w", names[i], err)
		}
		o := w.outcome()
		r := result{Correct: true, Attempted: o.attempted, Failed: o.failed, Counters: o.counters}
		if traced {
			layer := map[string]float64{}
			for _, m := range []map[string]float64{probed, o.layer} {
				for k, v := range m {
					layer[k] = v
				}
			}
			harnessLayer(layer, o, tr, env)
			ledger(names[i], layer)
			r.Metrics = metricsFor(perLayerMetrics, layer)
		} else {
			e2e := endToEnd(o.windows, o.memMB)
			e2e[mSetupS] = setupS[i]
			r.Metrics = metricsFor(endToEndMetrics, e2e)
		}
		results[i] = r
	}
	if tr != nil {
		if err := tr.writeTo(env.traceOut); err != nil {
			return nil, err
		}
	}
	return results, nil
}

func metricsFor(defs []metricDef, values map[string]float64) map[string]metricValue {
	m := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		m[d.name] = metricValue{Value: values[d.name], Unit: d.unit}
	}
	return m
}

// perWindow maps each window with a defined figure to that figure.
func perWindow(ws []window, f func(w *window) (float64, bool)) []float64 {
	out := make([]float64, 0, len(ws))
	for i := range ws {
		if v, ok := f(&ws[i]); ok {
			out = append(out, v)
		}
	}
	return out
}

func cellsPerS(w *window) (float64, bool) {
	return float64(w.cells) / (float64(w.wallNS) / 1e9), w.wallNS > 0 && w.cells > 0
}

func cpuPerCell(w *window) (float64, bool) {
	return float64(w.cpuNS) / 1e3 / float64(w.cells), w.cells > 0 && w.cpuNS > 0
}

// quietWindows returns the quietShare of ws with the lowest mean
// latency (see quietShare). The mean, not the median: it is what ties
// latency to throughput (per call in-process, by Little's law in a
// closed loop), and a window whose median is fine but which holds a
// stall is not quiet. Windows with fewer than 20 latency samples are
// left out.
func quietWindows(ws []window) []window {
	ranked := make([]window, 0, len(ws))
	for _, w := range ws {
		if w.lat != nil && w.lat.n >= 20 {
			ranked = append(ranked, w)
		}
	}
	sort.SliceStable(ranked, func(i, j int) bool { return ranked[i].lat.mean() < ranked[j].lat.mean() })
	n := int(math.Ceil(quietShare * float64(len(ranked))))
	return ranked[:n]
}

// endToEnd reduces a workload's windows to the end-to-end metrics
// (setup_s is added by the caller): throughput and CPU are medians
// over the quiet windows, the latency is the median of the quiet
// windows' pooled samples.
func endToEnd(ws []window, memMB float64) map[string]float64 {
	quiet := quietWindows(ws)
	var pooled hist
	for _, w := range quiet {
		pooled.merge(w.lat)
	}
	return map[string]float64{
		mCellsPerS:  quantile(perWindow(quiet, cellsPerS), 0.5),
		mLatencyP50: pooled.quantile(0.50) / 1e3,
		mCPUPerCell: quantile(perWindow(quiet, cpuPerCell), 0.5),
		mMemMB:      memMB,
	}
}

// quietRate is the cells_per_s figure alone: the median throughput of
// the quiet windows.
func quietRate(ws []window) float64 {
	return quantile(perWindow(quietWindows(ws), cellsPerS), 0.5)
}

// harnessLayer adds the ledger lines that price the harness itself.
func harnessLayer(layer map[string]float64, o *outcome, tr *tracer, env *environment) {
	var untraced, traced []window
	for _, w := range o.windows {
		if w.traced {
			traced = append(traced, w)
		} else {
			untraced = append(untraced, w)
		}
	}
	q1, q2, q3 := quartiles(perWindow(o.windows, cellsPerS))
	if q2 > 0 {
		layer[mHarnessWindowIQR] = (q3 - q1) / q2
		// How far the run as a whole fell short of its quiet windows.
		layer[mHarnessDisturbance] = 1 - q2/quietRate(o.windows)
	}
	if u := quietRate(untraced); u > 0 {
		layer[mHarnessTraceOverhead] = 1 - quietRate(traced)/u
	}
	if o.attempted > 0 {
		layer[mHarnessFailedShare] = float64(o.failed) / float64(o.attempted)
	}
	layer[mHarnessBuildS] = env.buildS
	layer[mHarnessSpans] = float64(tr.count())
}

// ledger states, for the serve workloads, how the daemon's CPU per
// cell adds up from the layers under it, residual included.
func ledger(name string, layer map[string]float64) {
	if name != wServeClosed && name != wServePaced {
		return
	}
	total := layer[mServeCPUPerCell]
	engine := layer[mServeEngineUSPerCel]
	enc := layer[mWireEncodeNS] / 1e3
	dec := layer[mWireDecodeNS] / 1e3
	loop := layer[mNetLoopbackUS]
	residual := total - engine - enc - dec - loop
	layer[mServeLedgerResidual] = residual
	fmt.Fprintf(os.Stderr,
		"ledger %s: server_cpu_us_per_cell %.4f = serve.engine_us_per_cell %.4f + wire.encode %.4f + wire.decode %.4f + net.loopback %.4f + residual %.4f\n",
		name, total, engine, enc, dec, loop, residual)
}
