// Command benchcheck gates benchmark output against recorded baselines.
//
// It reads `go test -bench` output on stdin, extracts ns/op and
// allocs/op per benchmark, and compares them to a section of
// BENCH_baseline.json:
//
//	go test -run '^$' -bench 'BenchmarkTick' -benchtime 2s . |
//	    go run ./cmd/benchcheck -section fused_kernel_pr6
//
// A benchmark fails the gate when its ns/op exceeds the recorded
// baseline by more than -tolerance (default 25%), or when it reports a
// nonzero allocs/op while the baseline row records zero. Benchmarks
// with no baseline row are reported but never fail the gate, so suites
// can grow ahead of the recorded baselines; conversely, baseline rows
// with no matching observation in the run are warned about but never
// fail the gate, so a narrower -bench selection can be checked against
// a wide baseline section.
//
// Baseline sections may nest sub-objects (queue_scaling, rows, ...);
// any object with an "ns_op" field found under the section, keyed by a
// name starting with "Benchmark", is treated as a baseline row. The
// "-N" GOMAXPROCS suffix that `go test` appends on multi-core hosts is
// stripped before lookup, so baselines recorded on a single-CPU box
// match runs from any runner.
package main

import (
	"flag"
	"fmt"
	"os"
)

func main() {
	baselinePath := flag.String("baseline", "BENCH_baseline.json",
		"path to the baseline JSON file")
	section := flag.String("section", "fused_kernel_pr6",
		"top-level section of the baseline file to gate against")
	tolerance := flag.Float64("tolerance", 0.25,
		"allowed fractional ns/op regression over baseline")
	flag.Parse()

	raw, err := os.ReadFile(*baselinePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchcheck:", err)
		os.Exit(2)
	}
	baselines, err := loadBaselines(raw, *section)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchcheck:", err)
		os.Exit(2)
	}

	seen, order, err := parseRuns(os.Stdin, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchcheck: read stdin:", err)
		os.Exit(2)
	}
	if len(order) == 0 {
		fmt.Fprintln(os.Stderr, "benchcheck: no benchmark lines on stdin")
		os.Exit(2)
	}

	failed := compare(order, seen, baselines, *tolerance, os.Stdout)
	if failed {
		fmt.Fprintln(os.Stderr, "benchcheck: FAIL: regression over baseline")
		os.Exit(1)
	}
	fmt.Println("benchcheck: PASS")
}
