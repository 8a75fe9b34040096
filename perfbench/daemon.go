package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/monitor"
)

// daemon is one running poetd process, launched from the binary built from
// the tree.
type daemon struct {
	cmd      *exec.Cmd
	addr     string // protocol listener, from the daemon's startup log
	httpAddr string // admin listener, when -http was given
	setup    time.Duration
	exited   chan error
	ended    bool // the process has exited and been reaped
	tail     *logTail
}

var addrRE = regexp.MustCompile(`addr=(\S+)`)

// startDaemon launches poetd and dials it. setup is the time from launch to
// the first HELLO: it covers process start, WAL recovery and the replay
// plane's open, since poetd listens only once every tenant is recovered.
func startDaemon(bin string, args []string) (*daemon, *monitor.ClientV2, error) {
	d := &daemon{exited: make(chan error, 1), tail: &logTail{}}
	d.cmd = exec.Command(bin, args...)
	// The daemon dies with the benchmark even when the benchmark itself is
	// killed and cannot stop it.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	d.cmd.Stderr = d.tail
	out, err := d.cmd.StdoutPipe()
	if err != nil {
		return nil, nil, err
	}
	listening := make(chan string, 1)
	admin := make(chan string, 1)
	start := time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, nil, err
	}
	go func() {
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			line := sc.Text()
			d.tail.Write([]byte(line + "\n"))
			m := addrRE.FindStringSubmatch(line)
			switch {
			case m == nil:
			case strings.Contains(line, "msg=monitoring"):
				listening <- m[1]
			case strings.Contains(line, `msg="admin http listening"`):
				admin <- m[1]
			}
		}
		io.Copy(io.Discard, out)
		d.exited <- d.cmd.Wait()
	}()
	select {
	case d.addr = <-listening:
	case err := <-d.exited:
		return nil, nil, fmt.Errorf("poetd exited before listening: %v\n%s", err, d.tail)
	case <-time.After(120 * time.Second):
		d.kill()
		return nil, nil, fmt.Errorf("poetd did not listen within 120s\n%s", d.tail)
	}
	c, err := monitor.DialV2(d.addr)
	if err != nil {
		d.kill()
		return nil, nil, fmt.Errorf("dial poetd: %w", err)
	}
	d.setup = time.Since(start)
	if hasFlag(args, "-http") {
		select {
		case d.httpAddr = <-admin:
		case <-time.After(10 * time.Second):
			c.Close()
			d.kill()
			return nil, nil, fmt.Errorf("poetd admin listener did not come up\n%s", d.tail)
		}
	}
	return d, c, nil
}

func hasFlag(args []string, name string) bool {
	for _, a := range args {
		if a == name {
			return true
		}
	}
	return false
}

// stop drains the daemon with SIGTERM and waits for it to exit. Clients must
// be closed first: poetd waits for connected sessions before exiting.
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	select {
	case err := <-d.exited:
		d.ended = true
		// poetd listens before it installs its signal handler, so a daemon
		// stopped right after its HELLO may still take SIGTERM's default
		// action; it had no state to drain.
		var exit *exec.ExitError
		if errors.As(err, &exit) {
			if ws, ok := exit.Sys().(syscall.WaitStatus); ok && ws.Signaled() && ws.Signal() == syscall.SIGTERM {
				err = nil
			}
		}
		if err != nil {
			return fmt.Errorf("poetd exit: %v\n%s", err, d.tail)
		}
		return nil
	case <-time.After(60 * time.Second):
		d.kill()
		return fmt.Errorf("poetd did not drain within 60s")
	}
}

// kill ends the daemon at once and waits for it.
func (d *daemon) kill() {
	d.cmd.Process.Kill()
	select {
	case <-d.exited:
		d.ended = true
	case <-time.After(30 * time.Second):
	}
}

// peakRSS reads the daemon's VmHWM (peak resident set) in bytes.
func (d *daemon) peakRSS() (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" && f[2] == "kB" {
			kb, err := strconv.ParseInt(f[1], 10, 64)
			return kb * 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", d.cmd.Process.Pid)
}

// scrape fetches the admin plane's /metrics and returns the sample lines of
// the named families (histograms contribute their _sum and _count).
func (d *daemon) scrape(families []string) (map[string]float64, error) {
	resp, err := http.Get("http://" + d.httpAddr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64)
	for _, line := range strings.Split(string(body), "\n") {
		f := strings.Fields(line)
		if len(f) < 2 || strings.HasPrefix(line, "#") {
			continue
		}
		for _, fam := range families {
			if f[0] == fam || f[0] == fam+"_sum" || f[0] == fam+"_count" {
				v, err := strconv.ParseFloat(f[1], 64)
				if err == nil {
					out[f[0]] = v
				}
			}
		}
	}
	return out, nil
}

// parseStats reads the numeric key=value fields of a STATS body.
func parseStats(body string) map[string]int64 {
	out := make(map[string]int64)
	for _, f := range strings.Fields(body) {
		k, v, ok := strings.Cut(f, "=")
		if !ok {
			continue
		}
		if n, err := strconv.ParseInt(v, 10, 64); err == nil {
			out[k] = n
		}
	}
	return out
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, e fs.DirEntry, err error) error {
		if err != nil || !e.Type().IsRegular() {
			return err
		}
		info, err := e.Info()
		if err == nil {
			total += info.Size()
		}
		return err
	})
	return total, err
}

// logTail keeps the daemon's last log lines for error reports.
type logTail struct {
	mu    sync.Mutex
	lines []string
}

func (t *logTail) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, l := range strings.Split(strings.TrimRight(string(p), "\n"), "\n") {
		t.lines = append(t.lines, l)
		if len(t.lines) > 20 {
			t.lines = t.lines[1:]
		}
	}
	return len(p), nil
}

func (t *logTail) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return strings.Join(t.lines, "\n")
}
