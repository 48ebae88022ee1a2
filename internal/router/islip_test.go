package router

import (
	"fmt"
	"math/rand"
	"testing"
)

// refISLIP is the scheduler as it was before the bitmask rewrite: a
// P×P bool request matrix rebuilt every iteration and modulo scans from
// the round-robin pointers. It is the reference the bitmask islip must
// match bit for bit.
type refISLIP struct {
	ports, iters  int
	grant, accept []int
	matches       uint64

	reqMat      []bool // [output*ports+input]
	grantChoice []int
	matchedOut  []int
}

func newRefISLIP(ports, iters int) *refISLIP {
	return &refISLIP{
		ports: ports, iters: iters,
		grant: make([]int, ports), accept: make([]int, ports),
		reqMat:      make([]bool, ports*ports),
		grantChoice: make([]int, ports),
		matchedOut:  make([]int, ports),
	}
}

// schedule matches over req[input][output], writing matched[input] =
// output or -1.
func (r *refISLIP) schedule(req [][]bool, matched []int) {
	P := r.ports
	for i := 0; i < P; i++ {
		matched[i], r.matchedOut[i] = -1, -1
	}
	for iter := 0; iter < r.iters; iter++ {
		any := false
		for o := 0; o < P; o++ {
			row := r.reqMat[o*P : o*P+P]
			for i := 0; i < P; i++ {
				row[i] = r.matchedOut[o] < 0 && matched[i] < 0 && req[i][o]
				any = any || row[i]
			}
		}
		if !any {
			break
		}
		for o := 0; o < P; o++ {
			r.grantChoice[o] = -1
			if r.matchedOut[o] >= 0 {
				continue
			}
			row := r.reqMat[o*P : o*P+P]
			for k := 0; k < P; k++ {
				if i := (r.grant[o] + k) % P; row[i] {
					r.grantChoice[o] = i
					break
				}
			}
		}
		for i := 0; i < P; i++ {
			if matched[i] >= 0 {
				continue
			}
			best, bestDist := -1, P+1
			for o := 0; o < P; o++ {
				if r.grantChoice[o] != i {
					continue
				}
				if d := (o - r.accept[i] + P) % P; d < bestDist {
					best, bestDist = o, d
				}
			}
			if best < 0 {
				continue
			}
			matched[i], r.matchedOut[best] = best, i
			r.matches++
			if iter == 0 {
				r.accept[i] = (best + 1) % P
				r.grant[best] = (i + 1) % P
			}
		}
	}
}

// TestBitmaskISLIPMatchesReference drives both schedulers with the same
// evolving random request rows — sparse, dense, and rows that empty and
// refill — and requires identical matchings, pointers and match counts
// on every slot, across the word boundary (64, 65 ports).
func TestBitmaskISLIPMatchesReference(t *testing.T) {
	const slots = 10000
	densities := []float64{0, 0.05, 0.5, 0.95}
	for _, ports := range []int{1, 3, 8, 16, 64, 65} {
		for _, iters := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("ports=%d/iters=%d", ports, iters), func(t *testing.T) {
				t.Parallel() // the reference is O(ports²) per iteration
				rng := rand.New(rand.NewSource(int64(ports*10 + iters)))
				ref, got := newRefISLIP(ports, iters), NewISLIP(ports, iters)
				req := make([][]bool, ports)
				for i := range req {
					req[i] = make([]bool, ports)
				}
				want := make([]int, ports)
				var matches uint64
				for slot := 0; slot < slots; slot++ {
					// Redraw a few rows, each blank, sparse or dense.
					for n := 1 + rng.Intn(3); n > 0; n-- {
						i, d := rng.Intn(ports), densities[rng.Intn(len(densities))]
						for o := range req[i] {
							req[i][o] = rng.Float64() < d
							got.Set(i, o, req[i][o])
						}
					}
					ref.schedule(req, want)
					matches += uint64(got.Schedule())
					for i := range want {
						if got.Matched[i] != want[i] {
							t.Fatalf("slot %d: matched[%d] = %d, reference %d", slot, i, got.Matched[i], want[i])
						}
						if got.grant[i] != ref.grant[i] || got.accept[i] != ref.accept[i] {
							t.Fatalf("slot %d: pointers of port %d = grant %d accept %d, reference %d %d",
								slot, i, got.grant[i], got.accept[i], ref.grant[i], ref.accept[i])
						}
					}
					if matches != ref.matches {
						t.Fatalf("slot %d: %d matches, reference %d", slot, matches, ref.matches)
					}
				}
				if matches < slots/4 {
					t.Errorf("only %d matches in %d slots: the differential exercised little", matches, slots)
				}
			})
		}
	}
}

// backlogged drives s with a VOQ backlog: voq[i][o] cells at input i
// for output o, the request bits kept equal to voq[i][o] > 0, and one
// cell leaving per match. step schedules one slot and returns its
// match count.
type backlogged struct {
	s   *ISLIP
	voq [][]int
}

func newBacklogged(ports, iters int) *backlogged {
	b := &backlogged{s: NewISLIP(ports, iters), voq: make([][]int, ports)}
	for i := range b.voq {
		b.voq[i] = make([]int, ports)
	}
	return b
}

func (b *backlogged) add(i, o int) {
	b.voq[i][o]++
	b.s.Set(i, o, true)
}

func (b *backlogged) step() int {
	n := b.s.Schedule()
	for i, o := range b.s.Matched {
		if o >= 0 {
			b.voq[i][o]--
			b.s.Set(i, o, b.voq[i][o] > 0)
		}
	}
	return n
}

// TestISLIPDesynchronization: under full uniform backlog, iSLIP
// should approach one match per output per slot (the classic
// 100%-throughput behaviour for uniform traffic). This is the
// scheduler alone; repro/pktbuf/router's test of the same name runs
// the experiment through the line cards.
func TestISLIPDesynchronization(t *testing.T) {
	const ports, inputCap = 4, 64
	b := newBacklogged(ports, 1)
	rng := rand.New(rand.NewSource(4))
	backlog := make([]int, ports)
	// Keep every input backlogged for every output: one cell per input
	// per slot to a uniform destination, dropped when the input holds
	// inputCap cells (full load).
	step := func() int {
		for i := 0; i < ports; i++ {
			if backlog[i] < inputCap {
				b.add(i, rng.Intn(ports))
				backlog[i]++
			}
		}
		n := b.step()
		for i, o := range b.s.Matched {
			if o >= 0 {
				backlog[i]--
			}
		}
		return n
	}
	// Warm up: fill the VOQs and desynchronize the pointers.
	for slot := 0; slot < 1500; slot++ {
		step()
	}
	const window = 400
	matches := 0
	for slot := 0; slot < window; slot++ {
		matches += step()
	}
	rate := float64(matches) / float64(window) / ports
	if rate < 0.9 {
		t.Errorf("match rate %.2f per output per slot, want ≥0.9 (iSLIP desync)", rate)
	}
}

// TestMultiIterationScheduler: extra iterations never reduce the
// matching. A 4×4 backlog of one cell per VOQ drains at every
// iteration count; and on one random request sequence, schedulers of
// 1, 2 and 4 iterations keep equal pointers, each matching containing
// the one of fewer iterations.
func TestMultiIterationScheduler(t *testing.T) {
	for _, iters := range []int{1, 2, 4} {
		b := newBacklogged(4, iters)
		for i := 0; i < 4; i++ {
			for o := 0; o < 4; o++ {
				b.add(i, o)
			}
		}
		delivered := 0
		for slot := 0; slot < 2000 && delivered < 16; slot++ {
			delivered += b.step()
		}
		if delivered != 16 {
			t.Errorf("iters=%d: delivered %d of 16", iters, delivered)
		}
	}

	const ports, slots = 8, 5000
	rng := rand.New(rand.NewSource(8))
	s := []*ISLIP{NewISLIP(ports, 1), NewISLIP(ports, 2), NewISLIP(ports, 4)}
	for slot := 0; slot < slots; slot++ {
		i, o, on := rng.Intn(ports), rng.Intn(ports), rng.Intn(3) > 0
		for _, x := range s {
			x.Set(i, o, on)
			x.Schedule()
		}
		for k := 1; k < len(s); k++ {
			fewer, more := s[k-1], s[k]
			for in := range fewer.Matched {
				if m := fewer.Matched[in]; m >= 0 && more.Matched[in] != m {
					t.Fatalf("slot %d: input %d matched %d at %d iterations, %d at %d",
						slot, in, m, fewer.iters, more.Matched[in], more.iters)
				}
				if fewer.grant[in] != more.grant[in] || fewer.accept[in] != more.accept[in] {
					t.Fatalf("slot %d: pointers of port %d differ between %d and %d iterations",
						slot, in, fewer.iters, more.iters)
				}
			}
		}
	}
}
