// Package router holds the input-queued router's fabric scheduler:
// iterative round-robin request-grant-accept (iSLIP) over bitmasks.
// The router engine itself, whose line cards raise and drop the
// requests, is repro/pktbuf/router.
package router

import "math/bits"

// ISLIP is the fabric scheduler: iterative round-robin
// request-grant-accept (iSLIP) over bitmasks. Requests live in one
// mask of inputs per output, kept current by Set as VOQs fill and
// drain; a slot's grant and accept phases are then a masked
// find-first-set from each round-robin pointer instead of a scan of
// the P×P request matrix. Port sets wider than 64 span several words.
type ISLIP struct {
	ports, words, iters int
	grant               []int // per output: input the next grant search starts from
	accept              []int // per input: output the next accept search starts from
	Matched             []int // per input: output matched this slot, or -1

	req []uint64 // [output×words] inputs requesting the output
	// Per-slot scratch.
	freeIn, freeOut []uint64 // still-unmatched inputs / outputs
	granted         []uint64 // inputs holding a grant this iteration
	grants          []uint64 // [input×words] outputs granting the input
}

// NewISLIP returns a scheduler for ports×ports with iters iterations
// per slot.
func NewISLIP(ports, iters int) *ISLIP {
	words := (ports + 63) / 64
	return &ISLIP{
		ports: ports, words: words, iters: iters,
		grant:   make([]int, ports),
		accept:  make([]int, ports),
		Matched: make([]int, ports),
		req:     make([]uint64, ports*words),
		freeIn:  make([]uint64, words),
		freeOut: make([]uint64, words),
		granted: make([]uint64, words),
		grants:  make([]uint64, ports*words),
	}
}

// Set records whether input can serve a cell to output.
func (s *ISLIP) Set(input, output int, on bool) {
	w, bit := output*s.words+input>>6, uint64(1)<<(input&63)
	if on {
		s.req[w] |= bit
	} else {
		s.req[w] &^= bit
	}
}

// Requested reports whether input requests output, as Set last
// recorded.
func (s *ISLIP) Requested(input, output int) bool {
	return s.req[output*s.words+input>>6]>>(input&63)&1 == 1
}

// Idle reports that no input requests any output: Schedule would match
// nothing and move no pointer.
func (s *ISLIP) Idle() bool {
	for _, m := range s.req {
		if m != 0 {
			return false
		}
	}
	return true
}

// firstFrom returns the lowest bit of a&b at or after from, wrapping
// round to the lowest bit overall; -1 when a&b is empty.
func firstFrom(a, b []uint64, from int) int {
	w := from >> 6
	if m := a[w] & b[w] &^ (1<<(from&63) - 1); m != 0 {
		return w<<6 + bits.TrailingZeros64(m)
	}
	for k := w + 1; k < len(a); k++ {
		if m := a[k] & b[k]; m != 0 {
			return k<<6 + bits.TrailingZeros64(m)
		}
	}
	// Bits of word w at or after from are known clear, so a hit there
	// is below from.
	for k := 0; k <= w; k++ {
		if m := a[k] & b[k]; m != 0 {
			return k<<6 + bits.TrailingZeros64(m)
		}
	}
	return -1
}

// Schedule computes one slot's matching into Matched and returns the
// number of matches made. Grant and accept pointers advance only on
// first-iteration accepts (the iSLIP desynchronization rule).
//
//pktbuf:hotpath
func (s *ISLIP) Schedule() int {
	P, W := s.ports, s.words
	for i := range s.Matched {
		s.Matched[i] = -1
	}
	for w := range s.freeIn {
		all := ^uint64(0)
		if rem := P - w<<6; rem < 64 {
			all = 1<<rem - 1
		}
		s.freeIn[w], s.freeOut[w] = all, all
	}
	matches := 0
	for iter := 0; iter < s.iters; iter++ {
		// Grant: each unmatched output picks the unmatched requesting
		// input nearest its grant pointer.
		any := false
		for w, outs := range s.freeOut {
			for ; outs != 0; outs &= outs - 1 {
				o := w<<6 + bits.TrailingZeros64(outs)
				i := firstFrom(s.req[o*W:o*W+W], s.freeIn, s.grant[o])
				if i < 0 {
					continue
				}
				s.grants[i*W+o>>6] |= 1 << (o & 63)
				s.granted[i>>6] |= 1 << (i & 63)
				any = true
			}
		}
		if !any {
			break
		}
		// Accept: each granted input picks the granting output nearest
		// its accept pointer.
		for w, ins := range s.granted {
			s.granted[w] = 0
			for ; ins != 0; ins &= ins - 1 {
				i := w<<6 + bits.TrailingZeros64(ins)
				g := s.grants[i*W : i*W+W]
				o := firstFrom(g, g, s.accept[i])
				clear(g)
				s.Matched[i] = o
				s.freeIn[i>>6] &^= 1 << (i & 63)
				s.freeOut[o>>6] &^= 1 << (o & 63)
				matches++
				if iter == 0 {
					if s.accept[i] = o + 1; o+1 == P {
						s.accept[i] = 0
					}
					if s.grant[o] = i + 1; i+1 == P {
						s.grant[o] = 0
					}
				}
			}
		}
	}
	return matches
}
