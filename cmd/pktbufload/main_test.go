package main

import (
	"bytes"
	"context"
	"io"
	"log"
	"net"
	"regexp"
	"strconv"
	"testing"
	"time"

	"repro/pktbuf"
	"repro/pktbuf/serve"
)

// TestBurstFitsWindow: at 2 M cells/s over two connections a 5-ms tick
// holds 5 000 cells per connection, more than the window of a
// `pktbufd -queues 64` daemon. The loader splits each tick into
// window-sized Submits, so the run submits and delivers cells and
// exits 0 (every submitted cell delivered or rejected).
func TestBurstFitsWindow(t *testing.T) {
	srv, err := serve.NewServer(serve.Config{
		Buffer:   pktbuf.Config{Queues: 64, LineRate: pktbuf.OC768, Granularity: 2, Banks: 256},
		ErrorLog: log.New(io.Discard, "", 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(lis)
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}()
	if w := srv.Config().Window; w >= maxBurst {
		t.Fatalf("daemon window %d, want one below a %d-cell tick", w, maxBurst)
	}

	var stderr bytes.Buffer
	code := run([]string{"-addr", lis.Addr().String(), "-rate", "2000000", "-conns", "2",
		"-flows", "64", "-duration", "200ms"}, &stderr)
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, stderr.String())
	}
	m := regexp.MustCompile(`submitted=(\d+) delivered=(\d+)`).FindStringSubmatch(stderr.String())
	if m == nil {
		t.Fatalf("no summary line in:\n%s", stderr.String())
	}
	if sub, _ := strconv.Atoi(m[1]); sub == 0 {
		t.Errorf("submitted=%s delivered=%s, want cells submitted", m[1], m[2])
	}
	if del, _ := strconv.Atoi(m[2]); del == 0 {
		t.Errorf("submitted=%s delivered=%s, want cells delivered", m[1], m[2])
	}
}
