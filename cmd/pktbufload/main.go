// Command pktbufload is the load-generator client for pktbufd: it
// opens data-plane connections, handshakes each for a slice of flows,
// and submits cells drawn from the repro/pktbuf/sim workload
// generators at a paced aggregate rate, reporting delivery and
// backpressure counters at the end. The soak smoke in CI drives a
// high-flow-count run against a live daemon and asserts zero
// admission rejects at sub-capacity load.
//
//	pktbufload -addr localhost:9950 -conns 8 -flows 10000 -rate 200000 -duration 5s
//
// With -retry each connection rides through server restarts: lost
// connections reconnect with jittered exponential backoff and resume
// their session, and the delivery/reject ledgers keep counting across
// reconnects — so -strict and the lost-cell audit hold for the whole
// run, crashes included. A connection that dies past its retry budget
// (or fails fast on a fatal reject such as session_unknown) exits
// non-zero with the terminal error.
//
// Exit status is non-zero if any connection failed, any cell was
// rejected while -strict is set, or not every submitted cell was
// delivered by the final Bye.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"sync"
	"time"

	"repro/pktbuf"
	"repro/pktbuf/serve"
	"repro/pktbuf/sim"
)

// maxBurst caps the cells one Submit frame carries.
const maxBurst = 4096

func main() { os.Exit(run(os.Args[1:], os.Stderr)) }

// run is the command: it parses args, drives the load and returns the
// exit status, logging to stderr.
func run(args []string, stderr io.Writer) int {
	fs := flag.NewFlagSet("pktbufload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr     = fs.String("addr", "localhost:9950", "pktbufd data-plane address")
		conns    = fs.Int("conns", 8, "client connections to open")
		flows    = fs.Int("flows", 1024, "total flows across all connections")
		rate     = fs.Float64("rate", 100000, "aggregate offered load in cells/second")
		duration = fs.Duration("duration", 5*time.Second, "how long to offer load")
		every    = fs.Duration("every", 5*time.Millisecond, "submit cadence per connection")
		pattern  = fs.String("arrivals", "uniform", "flow-choice pattern: uniform|roundrobin")
		seed     = fs.Int64("seed", 1, "workload RNG seed")
		strict   = fs.Bool("strict", false, "exit non-zero on any admission reject (counted across reconnects)")
		byeWait  = fs.Duration("byewait", 30*time.Second, "drain confirmation budget per connection")

		retry     = fs.Int("retry", 0, "reconnect attempts with session resumption per failure (0 = fail on first error)")
		retryBase = fs.Duration("retry-base", 50*time.Millisecond, "initial reconnect backoff (doubles per attempt, jittered)")
		retryMax  = fs.Duration("retry-max", 5*time.Second, "reconnect backoff ceiling")
		keepAlive = fs.Duration("keepalive", 0, "probe an idle server this often; treat two silent intervals as a dead connection")
	)
	if err := fs.Parse(args); errors.Is(err, flag.ErrHelp) {
		return 0
	} else if err != nil {
		return 2
	}
	logger := log.New(stderr, "pktbufload: ", log.LstdFlags)
	if *conns <= 0 || *flows < *conns {
		logger.Printf("need at least one flow per connection (conns=%d flows=%d)", *conns, *flows)
		return 1
	}

	type result struct {
		stats   serve.ClientStats
		rejects int
		err     error
	}
	results := make([]result, *conns)
	var wg sync.WaitGroup
	perConn := *flows / *conns
	cps := *rate / float64(*conns)
	for i := 0; i < *conns; i++ {
		n := perConn
		if i == 0 {
			n += *flows % *conns
		}
		wg.Add(1)
		go func(i, nFlows int) {
			defer wg.Done()
			res := &results[i]
			c, err := serve.DialWith(serve.DialConfig{
				Addr:      *addr,
				Flows:     nFlows,
				KeepAlive: *keepAlive,
				Retry: serve.Retry{
					Attempts: *retry,
					Base:     *retryBase,
					Max:      *retryMax,
					Seed:     *seed + int64(i),
				},
			})
			if err != nil {
				res.err = fmt.Errorf("dial: %w", err)
				return
			}
			assigned := c.Flows()
			// The sim generator picks which flow each cell belongs to;
			// load 1.0 yields one pick per draw.
			var gen sim.ArrivalProcess
			switch *pattern {
			case "uniform":
				gen, err = sim.NewUniformArrivals(nFlows, 1.0, *seed+int64(i))
			case "roundrobin":
				gen, err = sim.NewRoundRobinArrivals(nFlows, 1.0)
			default:
				err = fmt.Errorf("unknown arrivals pattern %q", *pattern)
			}
			if err != nil {
				res.err = err
				c.Close()
				return
			}
			var (
				slot    uint64
				carry   float64
				deadln  = time.Now().Add(*duration)
				burst   = make([]pktbuf.Queue, 0, maxBurst)
				perTick = cps * every.Seconds()
			)
			for time.Now().Before(deadln) {
				carry += perTick
				n := int(carry)
				carry -= float64(n)
				burst = burst[:0]
				// A Submit larger than the daemon's window is refused
				// outright, so a tick's cells go out in frames of at
				// most one window each.
				limit := min(maxBurst, c.Welcome().Window)
				for j := 0; j < n; j++ {
					q := gen.Next(slot)
					slot++
					if q == pktbuf.None {
						continue
					}
					burst = append(burst, assigned[q])
					if len(burst) == limit {
						if err := c.Submit(burst); err != nil {
							res.err = fmt.Errorf("submit: %w", err)
							break
						}
						burst = burst[:0]
					}
				}
				if res.err == nil && len(burst) > 0 {
					if err := c.Submit(burst); err != nil {
						res.err = fmt.Errorf("submit: %w", err)
					}
				}
				if res.err != nil {
					break
				}
				time.Sleep(*every)
			}
			if res.err == nil {
				ctx, cancel := context.WithTimeout(context.Background(), *byeWait)
				if err := c.Bye(ctx); err != nil {
					res.err = fmt.Errorf("bye: %w", err)
				}
				cancel()
			} else {
				c.Close()
			}
			// A connection that died past its retry budget is a failure
			// even if every Submit happened to return nil before the
			// reader noticed: the diagnostic names the terminal error.
			if err := c.Err(); err != nil && res.err == nil {
				res.err = fmt.Errorf("connection dead: %w", err)
			}
			res.stats = c.Stats()
			res.rejects = len(c.Rejects())
		}(i, n)
	}
	wg.Wait()

	var total serve.ClientStats
	rejects, failures := 0, 0
	for i := range results {
		r := &results[i]
		total.Submitted += r.stats.Submitted
		total.Delivered += r.stats.Delivered
		total.Rejected += r.stats.Rejected
		total.Resumes += r.stats.Resumes
		rejects += r.rejects
		if r.err != nil {
			failures++
			logger.Printf("conn %d: %v", i, r.err)
		}
	}
	logger.Printf("submitted=%d delivered=%d rejected=%d reject_frames=%d resumes=%d conns=%d flows=%d",
		total.Submitted, total.Delivered, total.Rejected, rejects, total.Resumes, *conns, *flows)
	switch {
	case failures > 0:
		return 1
	case total.Delivered+total.Rejected != total.Submitted:
		logger.Printf("lost cells: %d submitted never resolved",
			total.Submitted-total.Delivered-total.Rejected)
		return 1
	case *strict && total.Rejected > 0:
		logger.Printf("strict: %d cells rejected", total.Rejected)
		return 1
	}
	return 0
}
