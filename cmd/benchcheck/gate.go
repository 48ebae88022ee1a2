package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

type row struct {
	NsOp     float64
	AllocsOp float64
	hasNs    bool
}

// flatten walks a decoded JSON value and collects every
// {"ns_op": ..., "allocs_op": ...} object keyed by a Benchmark* name.
func flatten(v interface{}, out map[string]row) {
	m, ok := v.(map[string]interface{})
	if !ok {
		return
	}
	for k, child := range m {
		cm, ok := child.(map[string]interface{})
		if !ok {
			continue
		}
		if strings.HasPrefix(k, "Benchmark") {
			var r row
			if ns, ok := cm["ns_op"].(float64); ok {
				r.NsOp, r.hasNs = ns, true
			}
			if al, ok := cm["allocs_op"].(float64); ok {
				r.AllocsOp = al
			}
			if r.hasNs {
				out[k] = r
				continue
			}
		}
		flatten(child, out)
	}
}

// loadBaselines decodes the baseline JSON and flattens the named
// top-level section into baseline rows.
func loadBaselines(raw []byte, section string) (map[string]row, error) {
	var doc map[string]interface{}
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, fmt.Errorf("parse baseline: %w", err)
	}
	sec, ok := doc[section]
	if !ok {
		return nil, fmt.Errorf("no section %q in baseline", section)
	}
	baselines := make(map[string]row)
	flatten(sec, baselines)
	if len(baselines) == 0 {
		return nil, fmt.Errorf("section %q has no baseline rows", section)
	}
	return baselines, nil
}

var benchLine = regexp.MustCompile(
	`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([0-9.]+) ns/op(.*)$`)
var allocsField = regexp.MustCompile(`([0-9.]+) allocs/op`)

// obs is the best observation of one benchmark in the run.
type obs struct {
	nsOp   float64
	allocs float64
}

// parseRuns scans `go test -bench` output, echoing every line to echo
// (the CI log), and keeps the best (lowest ns/op) observation per
// benchmark: with -count N on a noisy host, min-of-N is the
// comparable statistic. The returned order preserves first
// appearance. The "-N" GOMAXPROCS suffix is stripped from names.
func parseRuns(r io.Reader, echo io.Writer) (map[string]obs, []string, error) {
	seen := make(map[string]obs)
	var order []string
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		fmt.Fprintln(echo, line)
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		name := m[1]
		ns, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			continue
		}
		var allocs float64
		if am := allocsField.FindStringSubmatch(m[3]); am != nil {
			allocs, _ = strconv.ParseFloat(am[1], 64)
		}
		if prev, dup := seen[name]; !dup || ns < prev.nsOp {
			if !dup {
				order = append(order, name)
			}
			seen[name] = obs{nsOp: ns, allocs: allocs}
		}
	}
	return seen, order, sc.Err()
}

// compare gates the observations against the baselines and writes the
// per-benchmark verdict lines to w. It returns true when the gate
// fails: an ns/op more than tolerance over baseline, or nonzero
// allocs/op against a zero-alloc baseline row. Benchmarks without a
// baseline row and baseline rows without an observation are reported
// but never fail.
func compare(order []string, seen map[string]obs, baselines map[string]row, tolerance float64, w io.Writer) bool {
	failed := false
	for _, name := range order {
		o := seen[name]
		base, ok := baselines[name]
		if !ok {
			fmt.Fprintf(w, "benchcheck: %-55s %10.1f ns/op  (no baseline, skipped)\n",
				name, o.nsOp)
			continue
		}
		limit := base.NsOp * (1 + tolerance)
		status := "ok"
		if o.nsOp > limit {
			status = "FAIL ns/op"
			failed = true
		}
		if o.allocs > 0 && base.AllocsOp == 0 {
			status += " FAIL allocs/op>0"
			failed = true
		}
		fmt.Fprintf(w, "benchcheck: %-55s %10.1f ns/op  vs %8.1f (limit %8.1f)  %s\n",
			name, o.nsOp, base.NsOp, limit, status)
	}
	var missing []string
	for name := range baselines {
		if _, ok := seen[name]; !ok {
			missing = append(missing, name)
		}
	}
	sort.Strings(missing)
	for _, name := range missing {
		fmt.Fprintf(w, "benchcheck: %-55s not in this run (baseline row unused)\n", name)
	}
	return failed
}
