package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/outofssa/serve"
)

// daemon is one ssad child process on a loopback port.
type daemon struct {
	cmd  *exec.Cmd
	base string // http://127.0.0.1:port
	hc   *http.Client
	// logDone is closed once the stderr reader has seen EOF; log holds the
	// lines it read, for diagnostics.
	logDone chan struct{}
	log     strings.Builder
}

// startDaemon starts ssad with its default flags (on an ephemeral loopback
// port) and waits until /healthz answers. conns bounds the client's
// connections to it.
func startDaemon(bin string, conns int) (*daemon, error) {
	d := &daemon{cmd: exec.Command(bin, "-addr", "127.0.0.1:0"), logDone: make(chan struct{})}
	// The daemon dies with the benchmark even if the benchmark is killed.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := d.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	addr := make(chan string, 1) // the reader sends at most once
	go func() {
		defer close(d.logDone)
		sc := bufio.NewScanner(stderr)
		sent := false
		for sc.Scan() {
			line := sc.Text()
			d.log.WriteString(line + "\n")
			if _, rest, ok := strings.Cut(line, "serving on http://"); ok && !sent {
				a, _, _ := strings.Cut(rest, " ")
				addr <- a
				sent = true
			}
		}
		_, _ = io.Copy(io.Discard, stderr)
	}()
	select {
	case a := <-addr:
		d.base = "http://" + a
	case <-d.logDone:
		d.cmd.Wait()
		return nil, fmt.Errorf("ssad exited before serving: %s", d.log.String())
	case <-time.After(30 * time.Second):
		d.kill()
		return nil, errors.New("ssad did not report its address within 30s")
	}
	d.hc = &http.Client{
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
		Timeout: 60 * time.Second,
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := d.hc.Get(d.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			d.kill()
			return nil, fmt.Errorf("ssad not healthy within 30s: %v", err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func (d *daemon) stats(ctx context.Context) (*serve.StatsResponse, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.base+"/v1/stats", nil)
	if err != nil {
		return nil, err
	}
	resp, err := d.hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("GET /v1/stats: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /v1/stats: status %d", resp.StatusCode)
	}
	var st serve.StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, fmt.Errorf("GET /v1/stats: %w", err)
	}
	return &st, nil
}

// peakRSSMiB reads the daemon's VmHWM.
func (d *daemon) peakRSSMiB() (float64, error) { return vmHWM(d.cmd.Process.Pid) }

// stop drains the daemon with SIGTERM, as an operator would, and waits for
// it to exit; past 20 seconds it is killed.
func (d *daemon) stop() error {
	d.hc.CloseIdleConnections()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		d.kill()
		return err
	}
	exited := make(chan error, 1) // Wait's result, read at most once
	go func() {
		<-d.logDone
		exited <- d.cmd.Wait()
	}()
	select {
	case err := <-exited:
		if err != nil {
			return fmt.Errorf("ssad exit: %w: %s", err, d.log.String())
		}
		return nil
	case <-time.After(20 * time.Second):
		d.cmd.Process.Kill()
		<-exited
		return errors.New("ssad did not drain within 20s")
	}
}

func (d *daemon) kill() {
	d.cmd.Process.Kill()
	<-d.logDone
	d.cmd.Wait()
}

// vmHWM returns the peak resident set size of a process in MiB.
func vmHWM(pid int) (float64, error) {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM of %d: %w", pid, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM for pid %d", pid)
}

// cpuTimes reads the machine's total and stolen CPU time, in clock ticks,
// from /proc/stat; stolen time is time the hypervisor ran something else.
func cpuTimes() (total, steal uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	for i, f := range strings.Fields(line)[1:] {
		v, _ := strconv.ParseUint(f, 10, 64)
		if i < 8 { // user..steal; guest time is already counted in user
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return total, steal
}

// stolenShare returns a function that reports the share of CPU time
// stolen since stolenShare was called.
func stolenShare() func() float64 {
	t0, s0 := cpuTimes()
	return func() float64 {
		t1, s1 := cpuTimes()
		return float64(s1-s0) / float64(max(t1-t0, 1))
	}
}

// cpuSeconds returns the user and system CPU time a process has used.
func cpuSeconds(pid int) float64 {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/stat")
	if err != nil {
		return 0
	}
	// The command name may hold spaces; the fields after it are fixed.
	_, rest, _ := strings.Cut(string(b), ") ")
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0
	}
	utime, _ := strconv.ParseFloat(f[11], 64)
	stime, _ := strconv.ParseFloat(f[12], 64)
	return (utime + stime) / 100 // clock ticks; USER_HZ is 100 on Linux
}
