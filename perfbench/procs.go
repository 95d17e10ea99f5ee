package main

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

// child is a started process the benchmark owns.
type child struct {
	cmd    *exec.Cmd
	exited chan struct{}
	err    error // Wait's result, valid once exited is closed
}

// children tracks every live child, so an error path still stops and
// reaps them before the benchmark exits.
var children struct {
	mu   sync.Mutex
	live map[*child]bool
}

func command(bin string, args ...string) *exec.Cmd {
	cmd := exec.Command(bin, args...)
	// The kernel kills the child if the benchmark dies first.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	return cmd
}

// startChild starts cmd and reaps it on its own goroutine.
func startChild(cmd *exec.Cmd) (*child, error) {
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	c := &child{cmd: cmd, exited: make(chan struct{})}
	children.mu.Lock()
	if children.live == nil {
		children.live = map[*child]bool{}
	}
	children.live[c] = true
	children.mu.Unlock()
	go func() {
		c.err = cmd.Wait()
		children.mu.Lock()
		delete(children.live, c)
		children.mu.Unlock()
		close(c.exited)
	}()
	return c, nil
}

func (c *child) wait() error {
	<-c.exited
	return c.err
}

// runChild runs cmd to completion.
func runChild(cmd *exec.Cmd) error {
	c, err := startChild(cmd)
	if err != nil {
		return err
	}
	return c.wait()
}

// stopAllChildren kills whatever is still running and waits until each
// has been reaped.
func stopAllChildren() {
	children.mu.Lock()
	live := make([]*child, 0, len(children.live))
	for c := range children.live {
		live = append(live, c)
	}
	children.mu.Unlock()
	for _, c := range live {
		_ = c.cmd.Process.Kill() // fails only if it already exited
		<-c.exited
	}
}

// daemon is one arcsd process on a loopback port.
type daemon struct {
	proc   *child
	base   string
	client *http.Client
}

// startDaemon launches arcsd with args plus a free loopback address and
// returns once /readyz answers 200, with the time that took.
func startDaemon(ctx context.Context, cfg config, logName string, conns int, args ...string) (*daemon, time.Duration, error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	logf, err := os.Create(filepath.Join(cfg.work, logName))
	if err != nil {
		return nil, 0, err
	}
	defer logf.Close()
	cmd := command(filepath.Join(cfg.bin, "arcsd"), append([]string{"-addr", addr}, args...)...)
	cmd.Stderr = logf
	cmd.Env = append(os.Environ(), "TMPDIR="+cfg.work)
	start := time.Now()
	proc, err := startChild(cmd)
	if err != nil {
		return nil, 0, err
	}
	d := &daemon{
		proc: proc,
		base: "http://" + addr,
		client: &http.Client{
			Timeout: 10 * time.Second,
			Transport: &http.Transport{
				MaxIdleConnsPerHost: conns,
				MaxConnsPerHost:     conns,
				DisableCompression:  true,
			},
		},
	}
	for {
		resp, err := d.client.Get(d.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, time.Since(start), nil
			}
		}
		select {
		case <-proc.exited:
			return nil, 0, fmt.Errorf("arcsd exited before ready: %v (log %s)", proc.err, logName)
		default:
		}
		if err := ctx.Err(); err != nil {
			d.stop()
			return nil, 0, err
		}
		sleepPrecise(250 * time.Microsecond)
		if time.Since(start) > 30*time.Second {
			d.stop()
			return nil, 0, fmt.Errorf("arcsd not ready after 30 s (log %s)", logName)
		}
	}
}

// stop drains the daemon with SIGTERM and waits for it to exit,
// killing it if the drain takes longer than its own budget.
func (d *daemon) stop() {
	_ = d.proc.cmd.Process.Signal(syscall.SIGTERM) // an exited process needs no signal
	select {
	case <-d.proc.exited:
	case <-time.After(15 * time.Second):
		_ = d.proc.cmd.Process.Kill()
		<-d.proc.exited
	}
	d.client.CloseIdleConnections()
}

func (d *daemon) pid() int { return d.proc.cmd.Process.Pid }

// call sends a JSON request (body may be nil) and decodes a JSON reply
// into out (which may be nil), failing on any status other than want.
func (d *daemon) call(method, path string, body any, want int, out any) error {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, d.base+path, rd)
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := d.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("%s %s: reading reply: %w", method, path, err)
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, strings.TrimSpace(string(b)))
	}
	if out == nil {
		return nil
	}
	if err := json.Unmarshal(b, out); err != nil {
		return fmt.Errorf("%s %s: decoding reply: %w", method, path, err)
	}
	return nil
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// clockTick is USER_HZ, the unit of /proc/<pid>/stat CPU times; it is
// 100 on every Linux architecture Go supports.
const clockTick = 100

// procCPU returns the user plus system CPU seconds pid has used.
func procCPU(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name may contain spaces; fields resume after ')'.
	s := string(b)
	fields := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(fields) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseFloat(fields[11], 64)
	stime, err2 := strconv.ParseFloat(fields[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parsing /proc/%d/stat", pid)
	}
	return (utime + stime) / clockTick, nil
}

// resetHWM sets pid's peak resident set size (VmHWM) back to its
// current resident size, so procHWM then reads the peak since the reset.
func resetHWM(pid int) error {
	return os.WriteFile(fmt.Sprintf("/proc/%d/clear_refs", pid), []byte("5"), 0)
}

// procHWM returns pid's peak resident set size in MiB (VmHWM).
func procHWM(pid int) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}
