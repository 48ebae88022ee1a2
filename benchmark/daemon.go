package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// environment is what a run needs from outside the workloads: where
// the trace goes and the daemon binary, once built.
type environment struct {
	traceOut  string
	daemonBin string // built on first use
	buildS    float64
	host      hostInfo
}

// buildDaemon builds cmd/pktbufd into the build directory (once per
// process; the go command's cache makes a rebuild of unchanged sources
// a sub-second no-op). The benchmark must run from the repo root.
func (e *environment) buildDaemon() error {
	if e.daemonBin != "" {
		return nil
	}
	bin := filepath.Join(buildDir, "pktbufd")
	t0 := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/pktbufd")
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build ./cmd/pktbufd (run the benchmark from the repo root): %w\n%s", err, out)
	}
	e.buildS = time.Since(t0).Seconds()
	abs, err := filepath.Abs(bin)
	if err != nil {
		return fmt.Errorf("build dir: %w", err)
	}
	e.daemonBin = abs
	return nil
}

// children tracks every daemon this process started, so that no exit
// path — failed check, panic, signal, watchdog — leaves one behind.
var children struct {
	sync.Mutex
	running map[*daemon]struct{}
	closed  bool // killChildren ran: the process is on its way out
}

// trackChild records a started daemon; false means the process is
// already exiting and the daemon must not stay.
func trackChild(d *daemon) bool {
	children.Lock()
	defer children.Unlock()
	if children.closed {
		return false
	}
	if children.running == nil {
		children.running = map[*daemon]struct{}{}
	}
	children.running[d] = struct{}{}
	return true
}

func untrackChild(d *daemon) {
	children.Lock()
	defer children.Unlock()
	delete(children.running, d)
}

// killChildren kills whatever is still running, waits until it is
// reaped, and refuses any daemon started from now on.
func killChildren() {
	children.Lock()
	children.closed = true
	var ds []*daemon
	for d := range children.running {
		ds = append(ds, d)
	}
	children.Unlock()
	for _, d := range ds {
		d.kill()
	}
}

// daemon is one running pktbufd.
type daemon struct {
	cmd      *exec.Cmd
	dataAddr string
	httpAddr string
	exited   chan struct{} // closed once Wait returned
	waitErr  error

	mu       sync.Mutex
	lastLine string
}

// daemonArgs is the serve workloads' engine: the OC-3072 design point
// at Q=64, ephemeral ports (read back from the log).
var daemonArgs = []string{
	"-queues", "64", "-rate", "oc3072", "-b", "4", "-banks", "256",
	"-listen", "127.0.0.1:0", "-http", "127.0.0.1:0",
}

// startDaemon starts pktbufd and waits (bounded) for both listeners.
func startDaemon(bin string) (*daemon, error) {
	cmd := exec.Command(bin, daemonArgs...)
	// If this process dies without running its clean-up (SIGKILL), the
	// kernel takes the daemon down with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, fmt.Errorf("pktbufd: %w", err)
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("pktbufd: %w", err)
	}
	d := &daemon{cmd: cmd, exited: make(chan struct{})}
	tracked := trackChild(d)
	type addrs struct{ data, http string }
	ready := make(chan addrs, 1)
	go func() {
		var a addrs
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			d.mu.Lock()
			d.lastLine = line
			d.mu.Unlock()
			if _, after, ok := strings.Cut(line, "data plane on "); ok {
				a.data = after
			}
			if _, after, ok := strings.Cut(line, "control plane on "); ok {
				a.http = after
				ready <- a
			}
		}
		// Wait only after the pipe is drained (os/exec's rule).
		d.waitErr = cmd.Wait()
		untrackChild(d)
		close(d.exited)
	}()
	if !tracked {
		d.kill()
		return nil, errors.New("pktbufd: the benchmark is shutting down")
	}
	select {
	case a := <-ready:
		d.dataAddr, d.httpAddr = a.data, a.http
		return d, nil
	case <-d.exited:
		return nil, fmt.Errorf("pktbufd exited during start-up: %v (last log line %q)", d.waitErr, d.logTail())
	case <-time.After(10 * time.Second):
		d.kill()
		return nil, errors.New("pktbufd did not announce its listeners within 10 s")
	}
}

func (d *daemon) logTail() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.lastLine
}

func (d *daemon) kill() {
	_ = d.cmd.Process.Kill() // already exited is fine
	<-d.exited
}

// stop sends SIGTERM and waits (bounded) for a clean drain: exit code
// 0 and a log that ends "drained clean: … clean=true".
func (d *daemon) stop() error {
	select {
	case <-d.exited:
		return fmt.Errorf("pktbufd exited early: %v (last log line %q)", d.waitErr, d.logTail())
	default:
	}
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		d.kill()
		return fmt.Errorf("pktbufd: SIGTERM: %w", err)
	}
	select {
	case <-d.exited:
	case <-time.After(15 * time.Second):
		d.kill()
		return errors.New("pktbufd did not exit within 15 s of SIGTERM")
	}
	tail := d.logTail()
	if d.waitErr != nil || !strings.Contains(tail, "drained clean") || !strings.HasSuffix(tail, "clean=true") {
		return fmt.Errorf("pktbufd did not drain clean: exit %v, last log line %q", d.waitErr, tail)
	}
	return nil
}

// scrape reads the daemon's /metrics into name → value (labels kept
// in the name, as Prometheus prints them).
func (d *daemon) scrape() (map[string]float64, error) {
	client := http.Client{Timeout: 5 * time.Second}
	resp, err := client.Get("http://" + d.httpAddr + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("scrape: %w", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("scrape: %w", err)
	}
	m := map[string]float64{}
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return nil, fmt.Errorf("scrape: line %q: %w", line, err)
		}
		m[name] = v
	}
	return m, nil
}

// procCPU returns the CPU time in ns and the number of times scheduled
// in, summed over the threads of pid, from /proc/<pid>/task/*/schedstat
// — the same quantity as utime+stime of /proc/<pid>/stat, at ns
// instead of 10 ms resolution.
func procCPU(pid int) (cpuNS int64, switches uint64, err error) {
	dir := filepath.Join("/proc", strconv.Itoa(pid), "task")
	tasks, err := os.ReadDir(dir)
	if err != nil {
		return 0, 0, fmt.Errorf("proc: %w", err)
	}
	for _, t := range tasks {
		b, err := os.ReadFile(filepath.Join(dir, t.Name(), "schedstat"))
		if err != nil {
			continue // thread exited between ReadDir and here
		}
		f := strings.Fields(string(b))
		if len(f) < 3 {
			return 0, 0, fmt.Errorf("proc: schedstat of %d/%s: %q", pid, t.Name(), b)
		}
		ns, err1 := strconv.ParseInt(f[0], 10, 64)
		n, err2 := strconv.ParseUint(f[2], 10, 64)
		if err1 != nil || err2 != nil {
			return 0, 0, fmt.Errorf("proc: schedstat of %d/%s: %q", pid, t.Name(), b)
		}
		cpuNS += ns
		switches += n
	}
	return cpuNS, switches, nil
}

// procStatusMB returns a kB field of /proc/<pid>/status (VmHWM, VmRSS)
// in MB.
func procStatusMB(pid int, key string) (float64, error) {
	b, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(pid), "status"))
	if err != nil {
		return 0, fmt.Errorf("proc: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, key+":"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, fmt.Errorf("proc: %s of %d: %w", key, pid, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("proc: no %s in status of %d", key, pid)
}
