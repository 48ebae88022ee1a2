package core

import (
	"bufio"
	"bytes"
	"errors"
	"hash/fnv"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"repro/internal/frame"
)

// TestSnapshotBytesPinned pins the snapshot encoding byte for byte: an
// FNV-64 over the Snapshot output of seeded dense buffers, taken at
// cuts that cover every phase of the b-slot MMA cycle and hold write
// blocks in the Requests Register and read blocks in the completion
// calendar. The constants were taken when blocks were carried as cell
// slices, and moved once since, when the default head SRAM size became
// the ECQF ledger bound (the framed headcells attribute is the only
// changed field).
func TestSnapshotBytesPinned(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		want uint64
	}{
		{"oc3072/q64/b4", Config{Q: 64, B: 32, Bsmall: 4, Banks: 256}, 0x071741258c549c4c},
		{"oc768/q8/b4/cap64", Config{Q: 8, B: 8, Bsmall: 4, Banks: 16, BankCapacityBlocks: 64}, 0xe4d10eb6012b7a8d},
		{"renaming/mdqf", Config{Q: 8, B: 8, Bsmall: 4, Banks: 16, Renaming: true, BankCapacityBlocks: 64, MMA: MDQF}, 0xf317e068423fc659},
	}
	var writes, comps int
	for ci, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			buf, err := New(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(int64(4300 + ci)))
			h := fnv.New64a()
			cuts := []int{400}
			for ph := 0; ph < 4*tc.cfg.Bsmall; ph++ {
				cuts = append(cuts, 1000+ph)
			}
			cuts = append(cuts, 2500)
			for _, cut := range cuts {
				denseStimulus(t, buf, rng, cut-int(buf.Now()))
				var snap bytes.Buffer
				if err := buf.Snapshot(&snap); err != nil {
					t.Fatal(err)
				}
				h.Write(snap.Bytes())
				w, c := inFlight(snap.Bytes())
				writes += w
				comps += c
			}
			if got := h.Sum64(); got != tc.want {
				t.Errorf("snapshot bytes FNV-64 = %#x, want %#x", got, tc.want)
			}
		})
	}
	if writes == 0 || comps == 0 {
		t.Fatalf("cuts held %d RR write entries and %d completions; the pin needs both in flight", writes, comps)
	}
}

// inFlight counts, in a snapshot, the Requests Register rows that stage
// a write block and the completion rows of blocks read from DRAM.
func inFlight(snap []byte) (writes, comps int) {
	frame := ""
	sc := bufio.NewScanner(bytes.NewReader(snap))
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "!") {
			frame = strings.Fields(line[1:])[0]
			continue
		}
		switch f := strings.Fields(line); frame {
		case "dss":
			if len(f) > 1 && f[1] == "1" { // Dir == dss.Write
				writes++
			}
		case "comp-slot":
			comps++
		}
	}
	return writes, comps
}

// TestRestoreRejectsMixedQueueBlock: a slab block holds the cells of
// one queue and the slab names that queue once, so a snapshot whose
// rows give one block's cells two queues cannot be restored faithfully.
// For each section that frames blocks — DRAM queue rows, Requests
// Register write entries, completions and head CAM rows — the test
// edits a valid snapshot so that one block's second cell names another
// queue, and requires RestoreBuffer to fail with frame.ErrFrame.
func TestRestoreRejectsMixedQueueBlock(t *testing.T) {
	bump := func(f []string, i int) { f[i] += "1" }
	applied, full := requireRejectedEdits(t, Config{Q: 8, B: 8, Bsmall: 4, Banks: 16}, 46, map[string]rowEdit{
		"dram-queue": func(_ map[string]int64, _ int, f, _ []string) bool { bump(f, 3); return true },
		"dss": func(_ map[string]int64, _ int, f, _ []string) bool {
			if len(f) < 10 || f[1] != "1" { // a write entry with its block
				return false
			}
			bump(f, 9)
			return true
		},
		"comp-slot": func(_ map[string]int64, _ int, f, _ []string) bool { bump(f, 4); return true },
		"sram-cam-queue": func(_ map[string]int64, _ int, f, prev []string) bool {
			// The previous row is the same block's earlier cell.
			if prev == nil || pos(f[0])/4 != pos(prev[0])/4 {
				return false
			}
			bump(f, 1)
			return true
		},
	})
	if !full {
		t.Fatalf("no cut held a block in all four sections (edits applied: %v)", applied)
	}
}

// TestRestoreRejectsNonRunBlock: a slab block is a run — cell k is
// (queue, first+k) — and the tail SRAM keeps its unpromised cells as
// counters and its promised cells as increasing runs, so a snapshot
// whose rows break any of that cannot be restored faithfully. For DRAM
// queue rows, Requests Register write entries, completions and head
// CAM rows the test makes one block's cells non-consecutive; for tail
// rows it makes an unpromised cell differ from the youngest arrivals,
// and two promised cells repeat a sequence number. A head CAM block
// must also be whole from its first unpopped cell: dropping a block's
// last row, with the queue's count and the CAM's total adjusted to
// match, leaves only the short block at fault. RestoreBuffer must fail
// with frame.ErrFrame every time.
func TestRestoreRejectsNonRunBlock(t *testing.T) {
	inc := func(f []string, i int) { f[i] = strconv.Itoa(pos(f[i]) + 1) }
	edits := map[string]rowEdit{
		"dram-queue": func(_ map[string]int64, _ int, f, _ []string) bool { inc(f, 4); return true },
		"dss": func(_ map[string]int64, _ int, f, _ []string) bool {
			if len(f) < 11 || f[1] != "1" { // a write entry with its block
				return false
			}
			inc(f, 10)
			return true
		},
		"comp-slot": func(_ map[string]int64, _ int, f, _ []string) bool { inc(f, 5); return true },
		"sram-cam-queue": func(_ map[string]int64, _ int, f, prev []string) bool {
			if prev == nil || pos(f[0])/4 != pos(prev[0])/4 {
				return false
			}
			inc(f, 2)
			return true
		},
		"sram-cam-queue/short": func(_ map[string]int64, _ int, f, prev []string) bool {
			// The last row of a block that has an earlier row: dropping
			// it leaves the block short of its end.
			if prev == nil || pos(f[0])%4 != 3 || pos(f[0])/4 != pos(prev[0])/4 {
				return false
			}
			f[0] = ""
			return true
		},
		"tail/unpromised": func(a map[string]int64, i int, f, _ []string) bool {
			if int64(i) != a["n"]-1 || a["promised"] == a["n"] {
				return false
			}
			inc(f, 1)
			return true
		},
		"tail/promised": func(a map[string]int64, i int, f, prev []string) bool {
			if i != 1 || a["promised"] < 2 {
				return false
			}
			f[1] = prev[1]
			return true
		},
	}
	applied, _ := requireRejectedEdits(t, Config{Q: 8, B: 8, Bsmall: 4, Banks: 16, Lookahead: 4, LatencySlots: 12}, 48, edits)
	for section := range edits {
		if applied[section] == 0 {
			t.Errorf("no cut held a row for the %s edit", section)
		}
	}
	t.Logf("cuts each edit applied at: %v", applied)
}

// rowEdit mutates row f of a snapshot frame in place and reports
// whether it applied. attrs are the frame's header attributes, i the
// row's index in the frame and prev the frame's previous row (nil for
// the first). An edit that blanks f[0] deletes the row instead, and
// editFirstRow takes one off the frame's count attribute and off the
// total attribute of the nearest frame above that has one, so that
// the counts still agree with the rows.
type rowEdit func(attrs map[string]int64, i int, f, prev []string) bool

// requireRejectedEdits drives a dense buffer of cfg from seed to cuts
// 1000…1199. At each cut it applies each edit, keyed by frame name
// (with an optional "/label" suffix), to the first row of that frame
// it applies to, and requires RestoreBuffer to reject the edited
// snapshot with frame.ErrFrame. It returns how many cuts each edit
// applied at, and whether some cut took every edit.
func requireRejectedEdits(t *testing.T, cfg Config, seed int64, edits map[string]rowEdit) (map[string]int, bool) {
	t.Helper()
	buf, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	applied, full := map[string]int{}, false
	for cut := 1000; cut < 1200; cut++ {
		denseStimulus(t, buf, rng, cut-int(buf.Now()))
		var snap bytes.Buffer
		if err := buf.Snapshot(&snap); err != nil {
			t.Fatal(err)
		}
		if _, err := RestoreBuffer(bytes.NewReader(snap.Bytes()), cfg); err != nil {
			t.Fatalf("cut %d: unedited snapshot: %v", cut, err)
		}
		mutated := 0
		for key, ed := range edits {
			section, _, _ := strings.Cut(key, "/")
			lines := strings.Split(snap.String(), "\n")
			if !editFirstRow(lines, section, ed) {
				continue
			}
			mutated++
			applied[key]++
			_, err := RestoreBuffer(strings.NewReader(strings.Join(lines, "\n")), cfg)
			if !errors.Is(err, frame.ErrFrame) {
				t.Errorf("cut %d: %s edit: err = %v, want frame.ErrFrame", cut, key, err)
			}
		}
		full = full || mutated == len(edits)
	}
	return applied, full
}

// editFirstRow applies ed to the first row of a section frame in lines
// it applies to, and reports whether it found one.
func editFirstRow(lines []string, section string, ed rowEdit) bool {
	sect, i, hdrLine, totalLine := "", 0, 0, 0
	var attrs map[string]int64
	var prev []string
	for k, line := range lines {
		if strings.HasPrefix(line, "!") {
			hdr := strings.Fields(line[1:])
			sect, i, prev, attrs, hdrLine = hdr[0], 0, nil, map[string]int64{}, k
			for _, kv := range hdr[1:] {
				if name, v, ok := strings.Cut(kv, "="); ok {
					attrs[name] = int64(pos(v))
					if name == "total" {
						totalLine = k
					}
				}
			}
			continue
		}
		if sect != section || line == "" {
			continue
		}
		f := strings.Fields(line)
		if ed(attrs, i, f, prev) {
			lines[k] = strings.Join(f, " ")
			if f[0] == "" {
				lines[k] = ""
				lines[hdrLine] = decAttr(lines[hdrLine], "count")
				lines[totalLine] = decAttr(lines[totalLine], "total")
			}
			return true
		}
		prev = f
		i++
	}
	return false
}

// decAttr takes one off attribute name in frame header line hdr.
func decAttr(hdr, name string) string {
	f := strings.Fields(hdr)
	for k, kv := range f {
		if n, v, ok := strings.Cut(kv, "="); ok && n == name {
			f[k] = n + "=" + strconv.Itoa(pos(v)-1)
		}
	}
	return strings.Join(f, " ")
}

func pos(s string) int {
	n, _ := strconv.Atoi(s)
	return n
}
