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
				ref, got := newRefISLIP(ports, iters), newISLIP(ports, iters)
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
							got.set(i, o, req[i][o])
						}
					}
					ref.schedule(req, want)
					matches += uint64(got.schedule())
					for i := range want {
						if got.matched[i] != want[i] {
							t.Fatalf("slot %d: matched[%d] = %d, reference %d", slot, i, got.matched[i], want[i])
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
