package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemon is one keplerd child process, driven only through what an
// operator has: CLI flags, the stderr slog stream, the HTTP socket, /proc
// and signals.
type daemon struct {
	cmd   *exec.Cmd
	start time.Time // just before exec

	serving chan struct{} // closed at the "serving" log line
	drained chan struct{} // closed at the "source drained" log line
	exited  chan struct{} // closed once stderr hit EOF and Wait returned

	// Written by the log scanner before it closes serving (base, servingAt,
	// resumeRec) or drained (drainedAt, records); read only after waiting on
	// that channel.
	base      string    // http://host:port from the "serving" line
	servingAt time.Time // wall instant the line was read
	resumeRec uint64    // "record" attribute of "resuming from checkpoint", 0 if absent
	drainedAt time.Time
	records   int // "records" attribute of the drained line

	mu        sync.Mutex
	lastLines []string // tail of the log, for error reports
}

// startDaemon execs keplerd with the given flags plus the fixed harness
// ones (ephemeral port, JSON logs). The log scanner goroutine is the only
// reader of the child's stderr; it ends when the child exits.
func startDaemon(bin string, args ...string) (*daemon, error) {
	args = append([]string{"-listen", "127.0.0.1:0", "-log-format", "json"}, args...)
	d := &daemon{
		cmd:     exec.Command(bin, args...),
		serving: make(chan struct{}),
		drained: make(chan struct{}),
		exited:  make(chan struct{}),
	}
	stderr, err := d.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	d.start = time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("exec keplerd: %w", err)
	}
	go func() {
		defer close(d.exited)
		d.scan(bufio.NewReaderSize(stderr, 1<<16))
		_ = d.cmd.Wait() // exit status is irrelevant: every instance ends by SIGKILL
	}()
	return d, nil
}

// scan consumes the slog JSON stream. Only three messages matter; the
// cheap substring test keeps the per-line cost away from the thousands of
// "feed degraded" lines a storm archive logs.
func (d *daemon) scan(r *bufio.Reader) {
	for {
		line, err := r.ReadString('\n')
		if line != "" {
			now := time.Now()
			d.mu.Lock()
			d.lastLines = append(d.lastLines, strings.TrimSpace(line))
			if len(d.lastLines) > 8 {
				d.lastLines = d.lastLines[1:]
			}
			d.mu.Unlock()
			switch {
			case strings.Contains(line, `"msg":"serving"`):
				var l struct{ Addr string }
				if json.Unmarshal([]byte(line), &l) == nil && l.Addr != "" {
					d.base, d.servingAt = l.Addr, now
					close(d.serving)
				}
			case strings.Contains(line, `"msg":"source drained`):
				var l struct{ Records int }
				_ = json.Unmarshal([]byte(line), &l)
				d.records, d.drainedAt = l.Records, now
				close(d.drained)
			case strings.Contains(line, `"msg":"resuming from checkpoint"`):
				var l struct{ Record uint64 }
				_ = json.Unmarshal([]byte(line), &l)
				d.resumeRec = l.Record // logged before "serving"
			}
		}
		if err != nil {
			return
		}
	}
}

// await blocks until ch closes, the child exits, or the timeout passes.
func (d *daemon) await(ch <-chan struct{}, what string, timeout time.Duration) error {
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case <-ch:
		return nil
	case <-d.exited:
		select {
		case <-ch: // the line and the exit raced; the line won
			return nil
		default:
		}
		return fmt.Errorf("keplerd exited before %s; last log lines:\n%s", what, d.tail())
	case <-t.C:
		return fmt.Errorf("keplerd: no %s within %v; last log lines:\n%s", what, timeout, d.tail())
	}
}

func (d *daemon) tail() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return strings.Join(d.lastLines, "\n")
}

// servingAfter and drainedAfter are exec → the named log line.
func (d *daemon) servingAfter() time.Duration { return d.servingAt.Sub(d.start) }
func (d *daemon) drainedAfter() time.Duration { return d.drainedAt.Sub(d.start) }

// kill SIGKILLs the child and waits until it is gone. Idempotent.
func (d *daemon) kill() {
	_ = d.cmd.Process.Signal(syscall.SIGKILL)
	<-d.exited
}

// procUsage is what /proc says about the child at one instant.
type procUsage struct {
	CPU        time.Duration // utime+stime, all threads
	PeakRSSMB  float64       // VmHWM
	WriteBytes int64         // /proc/<pid>/io write_bytes: bytes sent to the block layer
}

const clockTick = 100.0 // USER_HZ; fixed at 100 on every Linux ABI Go runs on

func (d *daemon) usage() (procUsage, error) {
	var u procUsage
	pid := strconv.Itoa(d.cmd.Process.Pid)
	stat, err := os.ReadFile("/proc/" + pid + "/stat")
	if err != nil {
		return u, err
	}
	// Fields after the parenthesised comm (which may itself hold spaces):
	// state is field 3, utime 14, stime 15.
	rest := string(stat)
	if i := strings.LastIndexByte(rest, ')'); i >= 0 {
		rest = rest[i+1:]
	}
	f := strings.Fields(rest)
	if len(f) < 13 {
		return u, fmt.Errorf("/proc/%s/stat: short line", pid)
	}
	ut, _ := strconv.ParseFloat(f[11], 64)
	st, _ := strconv.ParseFloat(f[12], 64)
	u.CPU = time.Duration((ut + st) / clockTick * float64(time.Second))

	status, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return u, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			kb, _ := strconv.ParseFloat(strings.Fields(line)[1], 64)
			u.PeakRSSMB = kb / 1024
		}
	}
	io, err := os.ReadFile("/proc/" + pid + "/io")
	if err != nil {
		return u, err
	}
	for _, line := range strings.Split(string(io), "\n") {
		if strings.HasPrefix(line, "write_bytes:") {
			u.WriteBytes, _ = strconv.ParseInt(strings.TrimSpace(strings.TrimPrefix(line, "write_bytes:")), 10, 64)
		}
	}
	return u, nil
}
