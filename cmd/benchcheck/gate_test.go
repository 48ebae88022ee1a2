package main

import (
	"io"
	"strings"
	"testing"
)

func TestLoadBaselinesNested(t *testing.T) {
	raw := []byte(`{
		"fused_kernel_pr6": {
			"BenchmarkTickFused": {"ns_op": 100.0, "allocs_op": 0},
			"queue_scaling": {
				"rows": {
					"BenchmarkTickQ64": {"ns_op": 250.5, "allocs_op": 2}
				}
			},
			"note": "not a row",
			"BenchmarkNoNs": {"allocs_op": 1}
		},
		"other_section": {
			"BenchmarkElsewhere": {"ns_op": 1.0}
		}
	}`)
	got, err := loadBaselines(raw, "fused_kernel_pr6")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("got %d rows, want 2: %v", len(got), got)
	}
	if r := got["BenchmarkTickFused"]; r.NsOp != 100.0 || r.AllocsOp != 0 {
		t.Errorf("BenchmarkTickFused = %+v", r)
	}
	if r := got["BenchmarkTickQ64"]; r.NsOp != 250.5 || r.AllocsOp != 2 {
		t.Errorf("nested BenchmarkTickQ64 = %+v", r)
	}
	if _, ok := got["BenchmarkElsewhere"]; ok {
		t.Error("row from another section leaked into the result")
	}
}

func TestLoadBaselinesErrors(t *testing.T) {
	if _, err := loadBaselines([]byte(`{`), "s"); err == nil {
		t.Error("malformed JSON: want error")
	}
	if _, err := loadBaselines([]byte(`{"a":{}}`), "missing"); err == nil {
		t.Error("missing section: want error")
	}
	if _, err := loadBaselines([]byte(`{"a":{"note":"x"}}`), "a"); err == nil {
		t.Error("section with no rows: want error")
	}
}

func TestParseRunsMinOfCount(t *testing.T) {
	in := strings.NewReader(strings.Join([]string{
		"goos: linux",
		"BenchmarkTick-8   \t1000\t 120.5 ns/op\t       0 B/op\t       0 allocs/op",
		"BenchmarkTick-8   \t1000\t 110.2 ns/op\t       0 B/op\t       0 allocs/op",
		"BenchmarkTick-8   \t1000\t 130.9 ns/op\t       0 B/op\t       0 allocs/op",
		"BenchmarkOther    \t 500\t 300 ns/op\t      16 B/op\t       2 allocs/op",
		"PASS",
	}, "\n"))
	seen, order, err := parseRuns(in, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "BenchmarkTick" || order[1] != "BenchmarkOther" {
		t.Fatalf("order = %v", order)
	}
	if o := seen["BenchmarkTick"]; o.nsOp != 110.2 || o.allocs != 0 {
		t.Errorf("min-of-count: BenchmarkTick = %+v, want ns 110.2", o)
	}
	if o := seen["BenchmarkOther"]; o.nsOp != 300 || o.allocs != 2 {
		t.Errorf("BenchmarkOther = %+v", o)
	}
}

func TestParseRunsStripsGOMAXPROCSSuffix(t *testing.T) {
	in := strings.NewReader("BenchmarkX-16 \t10\t 5.0 ns/op\n")
	seen, _, err := parseRuns(in, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := seen["BenchmarkX"]; !ok {
		t.Fatalf("suffix not stripped: %v", seen)
	}
}

func TestParseRunsEchoesEveryLine(t *testing.T) {
	input := "goos: linux\nBenchmarkX \t10\t 5.0 ns/op\nPASS\n"
	var echo strings.Builder
	if _, _, err := parseRuns(strings.NewReader(input), &echo); err != nil {
		t.Fatal(err)
	}
	if echo.String() != input {
		t.Errorf("echo = %q, want the input passed through verbatim", echo.String())
	}
}

func TestCompareToleranceGate(t *testing.T) {
	baselines := map[string]row{
		"BenchmarkOK":   {NsOp: 100, AllocsOp: 0, hasNs: true},
		"BenchmarkSlow": {NsOp: 100, AllocsOp: 0, hasNs: true},
		"BenchmarkEdge": {NsOp: 100, AllocsOp: 0, hasNs: true},
	}
	seen := map[string]obs{
		"BenchmarkOK":   {nsOp: 110},
		"BenchmarkSlow": {nsOp: 126}, // over 100 * 1.25
		"BenchmarkEdge": {nsOp: 125}, // exactly at the limit: passes
	}
	order := []string{"BenchmarkOK", "BenchmarkSlow", "BenchmarkEdge"}
	var out strings.Builder
	if !compare(order, seen, baselines, 0.25, &out) {
		t.Fatal("regression over +25% tolerance must fail the gate")
	}
	if !strings.Contains(out.String(), "BenchmarkSlow") ||
		!strings.Contains(out.String(), "FAIL ns/op") {
		t.Errorf("output missing ns/op failure: %s", out.String())
	}
	delete(seen, "BenchmarkSlow")
	order = []string{"BenchmarkOK", "BenchmarkEdge"}
	out.Reset()
	if compare(order, seen, baselines, 0.25, &out) {
		t.Errorf("within-tolerance runs must pass: %s", out.String())
	}
}

func TestCompareAllocsGate(t *testing.T) {
	baselines := map[string]row{
		"BenchmarkZero": {NsOp: 100, AllocsOp: 0, hasNs: true},
		"BenchmarkSome": {NsOp: 100, AllocsOp: 3, hasNs: true},
	}
	seen := map[string]obs{
		"BenchmarkZero": {nsOp: 100, allocs: 1}, // regression: 0-alloc baseline
		"BenchmarkSome": {nsOp: 100, allocs: 5}, // baseline already allocates: ns-only gate
	}
	order := []string{"BenchmarkZero", "BenchmarkSome"}
	var out strings.Builder
	if !compare(order, seen, baselines, 0.25, &out) {
		t.Fatal("allocs against a zero-alloc baseline must fail the gate")
	}
	if !strings.Contains(out.String(), "FAIL allocs/op>0") {
		t.Errorf("output missing allocs failure: %s", out.String())
	}
	seen["BenchmarkZero"] = obs{nsOp: 100, allocs: 0}
	out.Reset()
	if compare(order, seen, baselines, 0.25, &out) {
		t.Errorf("zero-alloc run against zero-alloc baseline must pass: %s", out.String())
	}
}

func TestCompareNoBaselineSkipped(t *testing.T) {
	baselines := map[string]row{
		"BenchmarkKnown": {NsOp: 100, hasNs: true},
	}
	seen := map[string]obs{
		"BenchmarkKnown": {nsOp: 90},
		"BenchmarkNew":   {nsOp: 1e9, allocs: 99},
	}
	order := []string{"BenchmarkKnown", "BenchmarkNew"}
	var out strings.Builder
	if compare(order, seen, baselines, 0.25, &out) {
		t.Fatalf("benchmark without a baseline row must not fail the gate: %s", out.String())
	}
	if !strings.Contains(out.String(), "(no baseline, skipped)") {
		t.Errorf("output missing skip notice: %s", out.String())
	}
}

func TestCompareMissingBaselineWarned(t *testing.T) {
	baselines := map[string]row{
		"BenchmarkRan":    {NsOp: 100, hasNs: true},
		"BenchmarkBOnly":  {NsOp: 50, hasNs: true},
		"BenchmarkAOnly2": {NsOp: 50, hasNs: true},
	}
	seen := map[string]obs{"BenchmarkRan": {nsOp: 90}}
	var out strings.Builder
	if compare([]string{"BenchmarkRan"}, seen, baselines, 0.25, &out) {
		t.Fatalf("unused baseline rows must not fail the gate: %s", out.String())
	}
	s := out.String()
	if !strings.Contains(s, "BenchmarkBOnly") || !strings.Contains(s, "BenchmarkAOnly2") ||
		!strings.Contains(s, "not in this run (baseline row unused)") {
		t.Errorf("output missing unused-baseline warnings: %s", s)
	}
	if strings.Index(s, "BenchmarkAOnly2") > strings.Index(s, "BenchmarkBOnly") {
		t.Errorf("unused-baseline warnings not sorted: %s", s)
	}
}

// TestParseRunsCapturesCpusMetric: extra metrics between ns/op and
// allocs/op (older runs report the host's "cpus") disturb neither.
func TestParseRunsCapturesCpusMetric(t *testing.T) {
	in := strings.NewReader(strings.Join([]string{
		"BenchmarkRouterStep/ports=8-8 \t100\t 2000 ns/op\t 12.0 cells/slot\t 8.000 cpus\t 0 B/op\t 3 allocs/op",
		"BenchmarkRouterStep/ports=4 \t100\t 5000 ns/op\t 0 allocs/op",
	}, "\n"))
	seen, _, err := parseRuns(in, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if o := seen["BenchmarkRouterStep/ports=8"]; o.nsOp != 2000 || o.allocs != 3 {
		t.Errorf("row with a cpus metric parsed as %+v, want 2000 ns/op, 3 allocs/op", o)
	}
	if o := seen["BenchmarkRouterStep/ports=4"]; o.nsOp != 5000 || o.allocs != 0 {
		t.Errorf("row without one parsed as %+v", o)
	}
}

// TestLoadBaselinesCpusField: recorded rows carry host metadata (cpus)
// beside the gated fields; it is ignored, not an error.
func TestLoadBaselinesCpusField(t *testing.T) {
	raw := []byte(`{
		"s": {
			"BenchmarkRouterStep/ports=8": {"ns_op": 2000, "allocs_op": 0, "cpus": 16}
		}
	}`)
	got, err := loadBaselines(raw, "s")
	if err != nil {
		t.Fatal(err)
	}
	if r := got["BenchmarkRouterStep/ports=8"]; r.NsOp != 2000 || !r.hasNs {
		t.Errorf("row = %+v, want ns_op 2000", r)
	}
}
