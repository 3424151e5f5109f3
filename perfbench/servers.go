package main

// servers.go starts and stops the cfserve and cfgate processes a run
// measures, and reads what they report about themselves: readiness,
// /statz cache counters, cfgate's /metrics retry counter and each
// process's peak resident set.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
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

// proc is one started server process.
type proc struct {
	name string
	args []string // exact command line
	base string   // http://127.0.0.1:port
	cmd  *exec.Cmd
	log  *tailBuffer
	done chan struct{}
	err  error // Wait's result, valid once done is closed
}

// tailBuffer keeps the last max bytes a server wrote to stderr, for
// diagnostics when it fails.
type tailBuffer struct {
	mu  sync.Mutex
	buf []byte
	max int
}

func (t *tailBuffer) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf = append(t.buf, p...)
	if len(t.buf) > t.max {
		t.buf = append([]byte(nil), t.buf[len(t.buf)-t.max:]...)
	}
	return len(p), nil
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(t.buf)
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startProc starts bin with its default flags plus the listen address and
// any extra deployment flags; the child dies with the benchmark.
func startProc(binDir, name string, extra ...string) (*proc, error) {
	port, err := freePort()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	bin := filepath.Join(binDir, name)
	args := append([]string{bin, "-addr", addr}, extra...)
	cmd := exec.Command(bin, args[1:]...)
	p := &proc{name: name, args: args, base: "http://" + addr, cmd: cmd,
		log: &tailBuffer{max: 16 << 10}, done: make(chan struct{})}
	cmd.Stdout = p.log
	cmd.Stderr = p.log
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	go func() {
		p.err = cmd.Wait()
		close(p.done)
	}()
	return p, nil
}

// stop kills the process and waits until it has exited.
func (p *proc) stop() {
	select {
	case <-p.done:
		return
	default:
	}
	_ = p.cmd.Process.Kill() // fails only if it already exited; done closes either way
	<-p.done
}

// waitReady polls GET /readyz until it answers 200.
func (p *proc) waitReady(ctx context.Context, c *http.Client) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, p.base+"/readyz", nil)
		if err != nil {
			return err
		}
		if resp, err := c.Do(req); err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-p.done:
			return fmt.Errorf("%s exited before ready: %v\n%s", p.name, p.err, p.log.String())
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not ready after 30s\n%s", p.name, p.log.String())
		}
	}
}

// deployment is the set of processes one workload runs against.
type deployment struct {
	backends []*proc
	gateway  *proc // nil on direct workloads
}

// target is the base URL the load goes to.
func (d *deployment) target() string {
	if d.gateway != nil {
		return d.gateway.base
	}
	return d.backends[0].base
}

func (d *deployment) procs() []*proc {
	ps := append([]*proc(nil), d.backends...)
	if d.gateway != nil {
		ps = append(ps, d.gateway)
	}
	return ps
}

// stop kills the gateway first, then the backends, waiting for each.
func (d *deployment) stop() {
	if d.gateway != nil {
		d.gateway.stop()
	}
	for _, p := range d.backends {
		p.stop()
	}
}

// deploy starts the workload's servers with their default flags and waits
// until every one is ready.
func deploy(ctx context.Context, binDir string, gateway bool, c *http.Client) (*deployment, error) {
	d := &deployment{}
	nBackends := 1
	if gateway {
		nBackends = 2
	}
	for i := 0; i < nBackends; i++ {
		p, err := startProc(binDir, "cfserve")
		if err != nil {
			d.stop()
			return nil, err
		}
		d.backends = append(d.backends, p)
	}
	if gateway {
		urls := make([]string, len(d.backends))
		for i, b := range d.backends {
			urls[i] = b.base
		}
		p, err := startProc(binDir, "cfgate", "-backends", strings.Join(urls, ","))
		if err != nil {
			d.stop()
			return nil, err
		}
		d.gateway = p
	}
	for _, p := range d.procs() {
		if err := p.waitReady(ctx, c); err != nil {
			d.stop()
			return nil, err
		}
	}
	return d, nil
}

// cacheStats is the cache block of cfserve's /statz.
type cacheStats struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
}

// backendCache sums the cache counters over every backend.
func (d *deployment) backendCache(ctx context.Context, c *http.Client) (cacheStats, error) {
	var sum cacheStats
	for _, b := range d.backends {
		var st struct {
			Cache cacheStats `json:"cache"`
		}
		if err := getJSON(ctx, c, b.base+"/statz", &st); err != nil {
			return sum, err
		}
		sum.Hits += st.Cache.Hits
		sum.Misses += st.Cache.Misses
		sum.Evictions += st.Cache.Evictions
	}
	return sum, nil
}

// gatewayRetries sums cfgate_backend_retries_total over backends (0 on a
// direct deployment).
func (d *deployment) gatewayRetries(ctx context.Context, c *http.Client) (float64, error) {
	if d.gateway == nil {
		return 0, nil
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.gateway.base+"/metrics", nil)
	if err != nil {
		return 0, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var total float64
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "cfgate_backend_retries_total{") {
			continue
		}
		v, err := strconv.ParseFloat(line[strings.LastIndexByte(line, ' ')+1:], 64)
		if err != nil {
			return 0, fmt.Errorf("parsing %q: %w", line, err)
		}
		total += v
	}
	return total, sc.Err()
}

// peakRSSMiB sums VmHWM (peak resident set) over the deployment's
// processes, in MiB.
func (d *deployment) peakRSSMiB() (float64, error) {
	var kib float64
	for _, p := range d.procs() {
		v, err := vmHWMKiB(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
		if err != nil {
			return 0, err
		}
		kib += v
	}
	return kib / 1024, nil
}

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat CPU times on Linux.
const clockTicks = 100

// cpuTime sums user and system CPU time over the deployment's processes.
// Time the host steals from the virtual machine is not charged to them.
func (d *deployment) cpuTime() (time.Duration, error) {
	var ticks int64
	for _, p := range d.procs() {
		data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
		if err != nil {
			return 0, err
		}
		// Fields after the parenthesised command name; utime and stime are
		// the 14th and 15th fields of the whole line.
		rest := string(data[strings.LastIndexByte(string(data), ')')+1:])
		f := strings.Fields(rest)
		if len(f) < 13 {
			return 0, fmt.Errorf("%s: short /proc stat line", p.name)
		}
		for _, s := range f[11:13] {
			v, err := strconv.ParseInt(s, 10, 64)
			if err != nil {
				return 0, err
			}
			ticks += v
		}
	}
	return time.Duration(ticks) * time.Second / clockTicks, nil
}

// vmHWMKiB reads the VmHWM line of a /proc/<pid>/status file.
func vmHWMKiB(path string) (float64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			return strconv.ParseFloat(f[1], 64)
		}
	}
	return 0, fmt.Errorf("%s: no VmHWM line", path)
}

// getJSON GETs url and decodes the JSON body into v.
func getJSON(ctx context.Context, c *http.Client, url string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d: %s", url, resp.StatusCode, bytes.TrimSpace(body))
	}
	return json.Unmarshal(body, v)
}
