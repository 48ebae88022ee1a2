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
// slices; carrying them by slab handle must not move a byte.
func TestSnapshotBytesPinned(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		want uint64
	}{
		{"oc3072/q64/b4", Config{Q: 64, B: 32, Bsmall: 4, Banks: 256}, 0x76ae3cff027a13f8},
		{"oc768/q8/b4/cap64", Config{Q: 8, B: 8, Bsmall: 4, Banks: 16, BankCapacityBlocks: 64}, 0x5bd0a6610397e70b},
		{"renaming/mdqf", Config{Q: 8, B: 8, Bsmall: 4, Banks: 16, Renaming: true, BankCapacityBlocks: 64, MMA: MDQF}, 0x6186c185146c8553},
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
	cfg := Config{Q: 8, B: 8, Bsmall: 4, Banks: 16}
	buf, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(46))
	// edits maps a section to a function that mutates the first
	// eligible row of its frame, reporting whether it found one.
	type edit func(f []string, prev []string) bool
	bump := func(f []string, i int) { f[i] += "1" }
	edits := map[string]edit{
		"dram-queue": func(f, _ []string) bool { bump(f, 3); return true },
		"dss": func(f, _ []string) bool {
			if len(f) < 10 || f[1] != "1" { // a write entry with its block
				return false
			}
			bump(f, 9)
			return true
		},
		"comp-slot": func(f, _ []string) bool { bump(f, 4); return true },
		"sram-cam-queue": func(f, prev []string) bool {
			// The previous row is the same block's earlier cell.
			if prev == nil || pos(f[0])/4 != pos(prev[0])/4 {
				return false
			}
			bump(f, 1)
			return true
		},
	}
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
		for section, ed := range edits {
			lines := strings.Split(snap.String(), "\n")
			sect, done := "", false
			var prev []string
			for i, line := range lines {
				if strings.HasPrefix(line, "!") {
					sect, prev = strings.Fields(line[1:])[0], nil
					continue
				}
				if sect != section || line == "" {
					continue
				}
				f := strings.Fields(line)
				if ed(f, prev) {
					lines[i], done = strings.Join(f, " "), true
					break
				}
				prev = f
			}
			if !done {
				continue
			}
			mutated++
			_, err := RestoreBuffer(strings.NewReader(strings.Join(lines, "\n")), cfg)
			if !errors.Is(err, frame.ErrFrame) {
				t.Errorf("cut %d: %s block with two queues: err = %v, want frame.ErrFrame", cut, section, err)
			}
		}
		if mutated == len(edits) {
			return
		}
	}
	t.Fatal("no cut held a block in all four sections")
}

func pos(s string) int {
	n, _ := strconv.Atoi(s)
	return n
}
