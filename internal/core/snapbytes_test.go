package core

import (
	"bufio"
	"bytes"
	"hash/fnv"
	"math/rand"
	"strings"
	"testing"
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
