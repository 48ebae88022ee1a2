// Command benchmark is the repo's ruler: six workloads over the
// serving tier, the buffer and the router, reduced to six end-to-end
// metrics (untraced) or a per-layer ledger (traced). BENCHMARK.json at
// the repo root declares the names, units, directions and regression
// bounds; README.md in this directory explains every choice.
//
//	go run ./benchmark -workload serve_closed -seed 1 -seconds 10 -trace 0
//	go run ./benchmark -seed 1            # all six, in six interleaved rounds
//	go run ./benchmark -trace 1           # the per-layer ledger
//	go run ./benchmark -aa 5              # run-to-run spread against the bounds
//
// The last line of standard output is one JSON object; tables for
// humans go to standard error. Run it from the repo root.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

const (
	// buildDir holds the daemon binary and traces; .gitignore names it.
	buildDir = ".bench_build"
	// allRounds is how many slices each workload's measured time is cut
	// into when all six run together (see README.md, "Rounds").
	allRounds = 6
)

func main() {
	os.Exit(realMain())
}

func realMain() (code int) {
	var (
		name     = flag.String("workload", "", "run one workload ("+strings.Join(workloadNames, "|")+"); empty runs all six in interleaved rounds")
		seed     = flag.Int64("seed", 1, "stimulus seed: same seed, same inputs")
		seconds  = flag.Float64("seconds", 10, "measured seconds per workload")
		trace    = flag.Int("trace", 0, "1 = traced run: per-layer metrics instead of end-to-end ones")
		aa       = flag.Int("aa", 0, "run every workload N times (seeds seed..seed+N-1) and report each metric's spread against its bound")
		traceOut = flag.String("trace-out", "", "span file of a traced run (default "+buildDir+"/trace-<workload>.jsonl)")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds <= 0 || *aa < 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "benchmark: bad arguments")
		flag.Usage()
		return 2
	}
	names, rounds, what := workloadNames, allRounds, "all"
	if *name != "" {
		names, rounds, what = []string{*name}, 1, *name
	}
	env := &environment{traceOut: *traceOut, host: host()}
	if env.traceOut == "" {
		env.traceOut = filepath.Join(buildDir, "trace-"+what+".jsonl")
	}
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}

	// No exit path leaves a daemon behind: a normal return and a panic
	// both run the deferred kill, a signal or the watchdog run it before
	// exiting.
	defer killChildren()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sig
		fmt.Fprintf(os.Stderr, "benchmark: %v: stopping\n", s)
		killChildren()
		os.Exit(1)
	}()
	// Watchdog: every wait inside has its own deadline; this is the
	// backstop that turns a hang nobody foresaw into a failed run.
	passes := *aa + 1 // -aa adds the same-seed determinism pass
	budget := time.Duration(float64(passes*len(names))*(2**seconds+90)) * time.Second
	watchdog := time.AfterFunc(budget, func() {
		fmt.Fprintf(os.Stderr, "benchmark: no result within %v: giving up\n", budget)
		killChildren()
		os.Exit(3)
	})
	defer watchdog.Stop()

	fmt.Fprintln(os.Stderr, "host:", env.host)
	if *aa > 0 {
		return runAA(names, *seed, *seconds, *aa, env)
	}
	results, err := runWorkloads(names, *seed, *seconds, rounds, *trace == 1, env)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: FAILED:", err)
		return 1
	}
	defs := endToEndMetrics
	if *trace == 1 {
		defs = perLayerMetrics
	}
	for i, r := range results {
		printResult(names[i], r, defs)
	}
	var out any
	if *name != "" {
		// The driver's form: exactly correct, attempted, failed, metrics.
		r := results[0]
		r.Counters = nil
		out = r
	} else {
		all := map[string]result{}
		for i, r := range results {
			all[names[i]] = r
		}
		out = struct {
			Host      hostInfo          `json:"host"`
			Seed      int64             `json:"seed"`
			Workloads map[string]result `json:"workloads"`
		}{env.host, *seed, all}
	}
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Println(string(b))
	return 0
}

// hostInfo is the metadata every recorded number needs beside it.
type hostInfo struct {
	CPUs       int    `json:"cpus"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
}

func (h hostInfo) String() string {
	return fmt.Sprintf("cpus=%d GOMAXPROCS=%d go=%s cpu=%q", h.CPUs, h.GOMAXPROCS, h.GoVersion, h.CPUModel)
}

func host() hostInfo {
	h := hostInfo{CPUs: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), CPUModel: "unknown"}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

// printResult prints one workload's metrics and repeatable counters
// for humans.
func printResult(name string, r result, defs []metricDef) {
	for _, d := range defs {
		v := r.Metrics[d.name]
		fmt.Fprintf(os.Stderr, "%-15s %-38s %16.4f %s\n", name, d.name, v.Value, v.Unit)
	}
	fmt.Fprintf(os.Stderr, "%-15s attempted=%d failed=%d\n", name, r.Attempted, r.Failed)
	if len(r.Counters) > 0 {
		fmt.Fprintf(os.Stderr, "%-15s counters %s\n", name, formatCounters(r.Counters))
	}
}

func formatCounters(c map[string]uint64) string {
	keys := make([]string, 0, len(c))
	for k := range c {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&sb, "%s=%d ", k, c[k])
	}
	return strings.TrimSpace(sb.String())
}

// runAA is the A/A check: every workload n times on this one build,
// each run with its own seed as the driver does, then per metric and
// workload the minimum, median and maximum and the interquartile
// spread as a share of the median, against the metric's declared
// bound. It also repeats the first seed once and requires the
// in-process workloads' simulated counters to match exactly. Exit
// status 1 if any spread exceeds its bound or any counter differs.
func runAA(names []string, seed int64, seconds float64, n int, env *environment) int {
	values := map[string]map[string][]float64{} // workload → metric → runs
	first := map[string]map[string]uint64{}
	ok := true
	for i := 0; i <= n; i++ {
		s := seed + int64(i)
		if i == n {
			s = seed // determinism pass
		}
		for _, name := range names {
			res, err := runWorkloads([]string{name}, s, seconds, 1, false, env)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchmark: FAILED:", err)
				return 1
			}
			r := res[0]
			fmt.Fprintf(os.Stderr, "aa run %d/%d seed %d %s done\n", i+1, n+1, s, name)
			if r.Failed > 0 {
				fmt.Fprintf(os.Stderr, "aa: %s seed %d: %d of %d operations failed\n", name, s, r.Failed, r.Attempted)
				ok = false
			}
			switch i {
			case 0:
				first[name] = r.Counters
			case n:
				if formatCounters(first[name]) != formatCounters(r.Counters) {
					fmt.Fprintf(os.Stderr, "aa: %s seed %d: counters differ between two runs:\n  %s\n  %s\n",
						name, s, formatCounters(first[name]), formatCounters(r.Counters))
					ok = false
				}
				continue // a repeated seed is not an independent sample
			}
			if values[name] == nil {
				values[name] = map[string][]float64{}
			}
			for m, v := range r.Metrics {
				values[name][m] = append(values[name][m], v.Value)
			}
		}
	}
	type row struct {
		Min    float64 `json:"min"`
		Median float64 `json:"median"`
		Max    float64 `json:"max"`
		Spread float64 `json:"spread"`
		Bound  float64 `json:"bound"`
	}
	table := map[string]map[string]row{}
	fmt.Fprintf(os.Stderr, "%-15s %-16s %14s %14s %14s %8s %6s\n", "workload", "metric", "min", "median", "max", "spread", "bound")
	for _, name := range names {
		table[name] = map[string]row{}
		for _, d := range endToEndMetrics {
			xs := values[name][d.name]
			_, med, _ := quartiles(xs)
			r := row{quantile(xs, 0), med, quantile(xs, 1), spreadShare(xs), d.bound}
			table[name][d.name] = r
			verdict := ""
			// setup_s is bounded on its median only (its spread is not
			// checked by the driver either).
			if r.Spread > d.bound && d.name != mSetupS {
				verdict = "  EXCEEDS BOUND"
				ok = false
			}
			fmt.Fprintf(os.Stderr, "%-15s %-16s %14.4f %14.4f %14.4f %8.4f %6.2f%s\n",
				name, d.name, r.Min, r.Median, r.Max, r.Spread, d.bound, verdict)
		}
	}
	b, err := json.Marshal(struct {
		Host hostInfo                  `json:"host"`
		Runs int                       `json:"runs"`
		OK   bool                      `json:"ok"`
		AA   map[string]map[string]row `json:"aa"`
	}{env.host, n, ok, table})
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Println(string(b))
	if !ok {
		return 1
	}
	return 0
}
