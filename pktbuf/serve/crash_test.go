package serve_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faultnet"
	"repro/pktbuf"
	"repro/pktbuf/serve"
	"repro/pktbuf/serve/wire"
)

// crashHarness is a resumable server living behind a fault-injection
// network, restartable from checkpoints, with a stable dialer that
// always points at the current incarnation.
type crashHarness struct {
	t   *testing.T
	fn  *faultnet.Network
	cfg serve.Config

	addr     atomic.Value // string
	lastConn atomic.Pointer[faultnet.Conn]

	srv *serve.Server
}

func newCrashHarness(t *testing.T, cfg serve.Config) *crashHarness {
	t.Helper()
	cfg.Resumable = true
	if cfg.ErrorLog == nil {
		// Crash tests tear down connections by design; keep the reaping
		// noise out of the test log.
		cfg.ErrorLog = log.New(io.Discard, "", 0)
	}
	h := &crashHarness{t: t, fn: faultnet.New(), cfg: cfg}
	h.start(nil)
	t.Cleanup(func() {
		h.fn.CutAll()
		h.srv.Close()
	})
	return h
}

// start boots a server incarnation — fresh, or restored from a
// checkpoint — and points the harness dialer at it.
func (h *crashHarness) start(ckpt []byte) {
	h.t.Helper()
	var srv *serve.Server
	var err error
	if ckpt == nil {
		srv, err = serve.NewServer(h.cfg)
	} else {
		srv, err = serve.RestoreServer(bytes.NewReader(ckpt), h.cfg)
	}
	if err != nil {
		h.t.Fatal(err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		h.t.Fatal(err)
	}
	h.srv = srv
	h.addr.Store(lis.Addr().String())
	go srv.Serve(h.fn.Listen(lis))
}

// crash checkpoints the current incarnation (unless ckpt is false),
// kills it abruptly — every connection cut, no drain — and boots the
// successor.
func (h *crashHarness) crash(ckpt bool) {
	h.t.Helper()
	var buf bytes.Buffer
	if ckpt {
		if err := h.srv.Checkpoint(&buf); err != nil {
			h.t.Fatalf("Checkpoint: %v", err)
		}
	}
	h.fn.CutAll()
	h.srv.Close()
	if ckpt {
		h.start(buf.Bytes())
	} else {
		h.start(nil)
	}
}

func (h *crashHarness) dialer() func() (net.Conn, error) {
	return func() (net.Conn, error) {
		nc, err := h.fn.Dial(func() (net.Conn, error) {
			return net.Dial("tcp", h.addr.Load().(string))
		})
		if err == nil {
			h.lastConn.Store(nc.(*faultnet.Conn))
		}
		return nc, err
	}
}

func (h *crashHarness) dial(flows int, retry serve.Retry, keepAlive time.Duration) *serve.Client {
	h.t.Helper()
	c, err := serve.DialWith(serve.DialConfig{
		Flows:     flows,
		KeepAlive: keepAlive,
		Retry:     retry,
		Dialer:    h.dialer(),
	})
	if err != nil {
		h.t.Fatal(err)
	}
	h.t.Cleanup(func() { c.Close() })
	return c
}

// watchOrder installs an OnDeliver hook asserting strictly sequential
// per-queue delivery — the exactly-once audit's ordering half.
func watchOrder(t *testing.T, c *serve.Client) {
	lastSeq := make(map[pktbuf.Queue]uint64)
	c.OnDeliver = func(cell pktbuf.Cell) {
		if want := lastSeq[cell.Queue]; cell.Seq != want {
			t.Errorf("queue %d delivered seq %d, want %d", cell.Queue, cell.Seq, want)
		}
		lastSeq[cell.Queue] = cell.Seq + 1
	}
}

// submitSpread submits n cells round-robin over the client's flows,
// recording them in the test-side per-queue ledger.
func submitSpread(t *testing.T, c *serve.Client, n int, ledger map[pktbuf.Queue]uint64) {
	t.Helper()
	flows := c.Flows()
	burst := make([]pktbuf.Queue, 0, 10)
	for i := 0; i < n; i++ {
		q := flows[i%len(flows)]
		burst = append(burst, q)
		ledger[q]++
		if len(burst) == cap(burst) {
			if err := c.Submit(burst); err != nil {
				t.Fatalf("Submit: %v", err)
			}
			burst = burst[:0]
		}
	}
	if len(burst) > 0 {
		if err := c.Submit(burst); err != nil {
			t.Fatalf("Submit: %v", err)
		}
	}
}

// auditExactlyOnce checks the client ledger against the test ledger:
// every submitted cell delivered exactly once, nothing in flight.
func auditExactlyOnce(t *testing.T, c *serve.Client, ledger map[pktbuf.Queue]uint64) {
	t.Helper()
	var total uint64
	for q, want := range ledger {
		total += want
		if got := c.Received(q); got != want {
			t.Errorf("queue %d received %d cells, want %d", q, got, want)
		}
	}
	st := c.Stats()
	if st.Submitted != total || st.Delivered != total || st.InFlight != 0 || st.Rejected != 0 {
		t.Errorf("client stats = %+v, want %d submitted and delivered, none in flight or rejected", st, total)
	}
}

// TestCheckpointRestoreResumeExactlyOnce is the crash-recovery
// contract end to end: a server checkpointed mid-flight is killed
// without warning and restored from the (by then stale) checkpoint;
// the client rides through on its retry policy and the session-resume
// reconciliation, and every cell — pre-checkpoint, in-flight at the
// checkpoint, post-checkpoint, and post-crash — is delivered exactly
// once, in order.
func TestCheckpointRestoreResumeExactlyOnce(t *testing.T) {
	h := newCrashHarness(t, serve.Config{Buffer: bufCfg(8)})
	c := h.dial(4, serve.Retry{Attempts: 200, Base: 2 * time.Millisecond, Max: 20 * time.Millisecond, Seed: 1}, 0)
	watchOrder(t, c)
	ledger := make(map[pktbuf.Queue]uint64)

	// Phase 1: a fully delivered prefix.
	submitSpread(t, c, 200, ledger)
	waitFor(t, 10*time.Second, "phase 1 deliveries", func() bool {
		return c.Stats().Delivered == 200
	})
	// Phase 2: cells in flight while the checkpoint is cut — these are
	// restored inside the engine.
	submitSpread(t, c, 120, ledger)
	var ckpt bytes.Buffer
	if err := h.srv.Checkpoint(&ckpt); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	// Phase 3: traffic after the checkpoint, so the restored state is
	// stale: deliveries the client received but the checkpoint never
	// saw (redelivered, then discarded by the dedup counters) and
	// submissions the restored engine never saw (resubmitted).
	submitSpread(t, c, 80, ledger)
	waitFor(t, 10*time.Second, "post-checkpoint deliveries", func() bool {
		return c.Stats().Delivered >= 250
	})

	// Crash: cut every connection, discard the live server, restore
	// from the stale checkpoint.
	h.fn.CutAll()
	h.srv.Close()
	h.start(ckpt.Bytes())

	// Phase 4: the session resumes transparently and traffic continues.
	submitSpread(t, c, 100, ledger)
	waitFor(t, 20*time.Second, "all deliveries after resume", func() bool {
		st := c.Stats()
		return st.Delivered == 500 && st.InFlight == 0
	})
	auditExactlyOnce(t, c, ledger)
	if st := c.Stats(); st.Resumes < 1 {
		t.Fatalf("client stats = %+v, want at least one resume", st)
	}
	if err := c.Err(); err != nil {
		t.Fatalf("client error after resume: %v", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := c.Bye(ctx); err != nil {
		t.Fatalf("Bye: %v", err)
	}
	if err := h.srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
}

// TestChaosCrashRestartSoak kills and restores the server repeatedly
// under continuous traffic — alternating crashes with a frame torn
// mid-write (a process dying in flush) — and audits exactly-once
// delivery per queue at the end.
func TestChaosCrashRestartSoak(t *testing.T) {
	h := newCrashHarness(t, serve.Config{Buffer: bufCfg(8)})
	c := h.dial(4, serve.Retry{Attempts: 400, Base: time.Millisecond, Max: 10 * time.Millisecond, Seed: 7}, 0)
	watchOrder(t, c)
	ledger := make(map[pktbuf.Queue]uint64)
	var ledgerMu sync.Mutex // submitSpread runs from two goroutines below

	submitted := 0
	submit := func(n int) {
		ledgerMu.Lock()
		defer ledgerMu.Unlock()
		submitSpread(t, c, n, ledger)
		submitted += n
	}

	const rounds = 5
	var torn sync.WaitGroup
	for round := 0; round < rounds; round++ {
		submit(150)
		goal := uint64(submitted - 60) // most of the backlog delivered
		waitFor(t, 20*time.Second, "round progress", func() bool {
			return c.Stats().Delivered >= goal
		})
		// More cells after the checkpoint inside crash(): half the
		// rounds also tear the client's current write mid-frame first,
		// so the server dies holding a truncated Submit.
		submit(40)
		if round%2 == 1 {
			if nc := h.lastConn.Load(); nc != nil {
				nc.PartialThenHang(8)
				torn.Add(1)
				go func() {
					defer torn.Done()
					submit(10) // blocks in the hung write until the cut
				}()
				time.Sleep(2 * time.Millisecond)
			}
		}
		h.crash(true)
	}
	torn.Wait()
	submit(50)

	ledgerMu.Lock()
	total := uint64(submitted)
	ledgerMu.Unlock()
	waitFor(t, 30*time.Second, "soak to quiesce", func() bool {
		st := c.Stats()
		return st.Delivered == total && st.InFlight == 0
	})
	auditExactlyOnce(t, c, ledger)
	if st := c.Stats(); st.Resumes < rounds {
		t.Fatalf("client stats = %+v, want at least %d resumes", st, rounds)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := c.Bye(ctx); err != nil {
		t.Fatalf("Bye: %v", err)
	}
	if err := h.srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
}

// TestKeepAliveReapsSilentPeer pins the server half of the liveness
// contract: a peer that stops answering (not even Pongs) is reaped
// after two KeepAlive intervals instead of holding its flows forever.
func TestKeepAliveReapsSilentPeer(t *testing.T) {
	srv, addr := startServer(t, serve.Config{
		Buffer:    bufCfg(4),
		KeepAlive: 20 * time.Millisecond,
		ErrorLog:  log.New(io.Discard, "", 0),
	})
	s := rawDial(t, addr, 1)
	s.submit([]pktbuf.Queue{s.flows[0]})
	for s.delivered < 1 {
		s.pump()
	}
	// Go silent: no reads, no Pongs. The server must reap the
	// connection and free its flow.
	waitFor(t, 5*time.Second, "silent peer reaped", func() bool {
		adm := srv.Admission()
		return adm.Conns == 0 && adm.Flows == 0
	})
	// The reaped socket is closed server-side: draining it hits an
	// error after at most the Pings the server queued before reaping.
	s.nc.SetReadDeadline(time.Now().Add(2 * time.Second))
	for i := 0; i < 64; i++ {
		if _, _, err := s.r.Next(); err != nil {
			return
		}
	}
	t.Fatal("reaped connection still delivering frames")
}

// TestClientKeepAliveDetectsSilentServer pins the client half: when
// the network black-holes traffic without closing sockets, the
// client's read deadline trips and surfaces a timeout instead of
// hanging forever.
func TestClientKeepAliveDetectsSilentServer(t *testing.T) {
	h := newCrashHarness(t, serve.Config{Buffer: bufCfg(4), KeepAlive: 15 * time.Millisecond})
	c := h.dial(1, serve.Retry{}, 15*time.Millisecond)
	ledger := make(map[pktbuf.Queue]uint64)
	submitSpread(t, c, 5, ledger)
	waitFor(t, 10*time.Second, "warm-up deliveries", func() bool {
		return c.Stats().Delivered == 5
	})
	h.fn.Blackhole(true)
	defer h.fn.Blackhole(false)
	waitFor(t, 5*time.Second, "client timeout", func() bool {
		return c.Err() != nil
	})
	var ne net.Error
	if err := c.Err(); !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("client error = %v, want a timeout", err)
	}
	select {
	case <-c.Done():
	case <-time.After(time.Second):
		t.Fatal("client Done not closed after timeout")
	}
}

// TestResumeSessionUnknownFailFast pins the fail-fast half of the
// reject taxonomy: resuming against a server that does not know the
// session (restarted without a checkpoint) aborts the retry loop with
// ErrSessionUnknown instead of burning the whole backoff budget.
func TestResumeSessionUnknownFailFast(t *testing.T) {
	h := newCrashHarness(t, serve.Config{Buffer: bufCfg(4)})
	c := h.dial(2, serve.Retry{Attempts: 100, Base: time.Millisecond, Max: 5 * time.Millisecond, Seed: 3}, 0)
	ledger := make(map[pktbuf.Queue]uint64)
	submitSpread(t, c, 10, ledger)
	waitFor(t, 10*time.Second, "warm-up deliveries", func() bool {
		return c.Stats().Delivered == 10
	})
	h.crash(false) // no checkpoint: the successor has no session table
	waitFor(t, 10*time.Second, "fail-fast error", func() bool {
		return c.Err() != nil
	})
	if err := c.Err(); !errors.Is(err, serve.ErrSessionUnknown) {
		t.Fatalf("client error = %v, want ErrSessionUnknown", err)
	}
	if st := c.Stats(); st.Resumes != 0 {
		t.Fatalf("client stats = %+v, want no successful resume", st)
	}
}

// TestReconnectExhaustsAttempts: with no server coming back, the
// retry loop gives up after its attempt budget and reports how hard
// it tried.
func TestReconnectExhaustsAttempts(t *testing.T) {
	h := newCrashHarness(t, serve.Config{Buffer: bufCfg(4)})
	c := h.dial(1, serve.Retry{Attempts: 3, Base: time.Millisecond, Max: 2 * time.Millisecond, Seed: 5}, 0)
	ledger := make(map[pktbuf.Queue]uint64)
	submitSpread(t, c, 4, ledger)
	h.fn.CutAll()
	h.srv.Close() // and no successor
	waitFor(t, 10*time.Second, "retry exhaustion", func() bool {
		return c.Err() != nil
	})
	if err := c.Err(); !strings.Contains(err.Error(), "after 3 attempts") {
		t.Fatalf("client error = %v, want reconnect exhaustion after 3 attempts", err)
	}
}

// TestInitialDialRetry: DialWith's first connection is covered by the
// same backoff policy as reconnects.
func TestInitialDialRetry(t *testing.T) {
	srv, addr := startServer(t, serve.Config{Buffer: bufCfg(4)})
	_ = srv
	var calls atomic.Int32
	c, err := serve.DialWith(serve.DialConfig{
		Flows: 1,
		Retry: serve.Retry{Attempts: 10, Base: time.Millisecond, Max: 5 * time.Millisecond, Seed: 9},
		Dialer: func() (net.Conn, error) {
			if calls.Add(1) <= 3 {
				return nil, errors.New("synthetic dial failure")
			}
			return net.Dial("tcp", addr)
		},
	})
	if err != nil {
		t.Fatalf("DialWith: %v", err)
	}
	defer c.Close()
	if got := calls.Load(); got != 4 {
		t.Fatalf("dialer called %d times, want 4", got)
	}
	if err := c.Submit([]pktbuf.Queue{c.Flows()[0]}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "delivery", func() bool { return c.Stats().Delivered == 1 })
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := c.Bye(ctx); err != nil {
		t.Fatalf("Bye: %v", err)
	}
}

// TestShutdownUnderChurnRace drives a resumable, keepalive-enabled
// server with submitting clients and connection churn, then shuts
// down gracefully mid-flight. The assertions are the drain contract
// (no deadlock, Shutdown returns nil) — under -race it also proves
// the session machinery clean under concurrency.
func TestShutdownUnderChurnRace(t *testing.T) {
	h := newCrashHarness(t, serve.Config{Buffer: bufCfg(32), KeepAlive: 20 * time.Millisecond})
	var wg sync.WaitGroup
	retry := serve.Retry{Attempts: 5, Base: time.Millisecond, Max: 5 * time.Millisecond, Seed: 11}
	for i := 0; i < 3; i++ {
		c := h.dial(4, retry, 20*time.Millisecond)
		wg.Add(1)
		go func(c *serve.Client) {
			defer wg.Done()
			flows := c.Flows()
			for i := 0; ; i++ {
				if err := c.Submit([]pktbuf.Queue{flows[i%len(flows)]}); err != nil {
					return // draining or closed — both fine
				}
			}
		}(c)
	}
	// Churn: keep dialing and dropping fresh sessions during shutdown.
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			c, err := serve.DialWith(serve.DialConfig{Flows: 1, Dialer: h.dialer()})
			if err != nil {
				return // listener closed: shutdown has begun
			}
			c.Submit([]pktbuf.Queue{c.Flows()[0]})
			c.Close()
		}
	}()
	time.Sleep(30 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := h.srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	close(stop)
	wg.Wait()
}

// TestServerByeWakesBlockedSubmit is the deterministic form of the
// hang TestShutdownUnderChurnRace only hits by schedule: a server that
// says Bye without a preceding Drain (Shutdown reaching a connection
// outside its Drain snapshot) while a submitter waits on a full
// window. The fake server never delivers, so nothing but the Bye can
// end that wait: Submit must fail with ErrDraining and Bye must
// return.
func TestServerByeWakesBlockedSubmit(t *testing.T) {
	const window = 2
	cs, ss := net.Pipe()
	windowFull := make(chan struct{})
	served := make(chan error, 1)
	go func() {
		served <- func() error {
			r, w := wire.NewReader(ss), wire.NewWriter(ss)
			if typ, _, err := r.Next(); err != nil || typ != wire.THello {
				return fmt.Errorf("handshake read %v: %v", typ, err)
			}
			welcome := wire.Welcome{Flows: 1, IngressRing: window, Window: window, Session: 1}
			if err := w.WriteFrame(wire.TWelcome, welcome.AppendTo(nil)); err != nil {
				return err
			}
			if err := w.WriteCells(wire.TFlows, wire.Deliveries, []pktbuf.Queue{0}); err != nil {
				return err
			}
			if err := w.Flush(); err != nil {
				return err
			}
			// Swallow the window-filling burst, say Bye, then keep the
			// synchronous pipe drained until the client closes it.
			if typ, _, err := r.Next(); err != nil || typ != wire.TSubmit {
				return fmt.Errorf("submit read %v: %v", typ, err)
			}
			<-windowFull
			if err := w.WriteFrame(wire.TBye, nil); err != nil {
				return err
			}
			if err := w.Flush(); err != nil {
				return err
			}
			for {
				if _, _, err := r.Next(); err != nil {
					return nil
				}
			}
		}()
	}()

	c, err := serve.DialWith(serve.DialConfig{
		Flows:  1,
		Dialer: func() (net.Conn, error) { return cs, nil },
	})
	if err != nil {
		t.Fatalf("DialWith: %v", err)
	}
	burst := make([]pktbuf.Queue, window)
	if err := c.Submit(burst); err != nil {
		t.Fatalf("window-filling Submit: %v", err)
	}
	blocked := make(chan error, 1)
	go func() { blocked <- c.Submit(burst[:1]) }()
	// Give the submitter time to park on the window; the Bye must end
	// its wait whether it arrives before or after.
	time.Sleep(20 * time.Millisecond)
	close(windowFull)

	select {
	case err := <-blocked:
		if !errors.Is(err, serve.ErrDraining) {
			t.Errorf("Submit after server Bye = %v, want ErrDraining", err)
		}
	case <-time.After(time.Second):
		t.Fatal("Submit still blocked on the full window 1s after the server's Bye")
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := c.Bye(ctx); err != nil {
		t.Errorf("Bye after server Bye: %v", err)
	}
	ss.Close()
	if err := <-served; err != nil {
		t.Errorf("fake server: %v", err)
	}
}
