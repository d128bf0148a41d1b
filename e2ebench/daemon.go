package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemon is one biasmitd process. Its stderr is drained for the whole
// run: the daemon writes one log line per request, and a full pipe
// would block the request that logs it.
type daemon struct {
	cmd       *exec.Cmd
	addr      string
	pprofAddr string

	mu      sync.Mutex
	log     bytes.Buffer
	drained chan struct{} // closed once stderr hits EOF
	exited  chan struct{} // closed once the process has been reaped
	waitErr error
}

// logLine is the part of a daemon log line the harness reads.
type logLine struct {
	Msg  string `json:"msg"`
	Addr string `json:"addr"`
}

// startDaemon execs bin with the default flags plus -addr
// 127.0.0.1:0 and any extra flags, and returns once the daemon has
// logged its listening address. Readiness comes from that log line,
// never from polling.
func startDaemon(bin string, extra ...string) (*daemon, error) {
	args := append([]string{"-addr", "127.0.0.1:0"}, extra...)
	cmd := exec.Command(bin, args...)
	cmd.Stdout = io.Discard
	// If the harness dies, the kernel kills the daemon with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting biasmitd: %w", err)
	}
	d := &daemon{cmd: cmd, drained: make(chan struct{}), exited: make(chan struct{})}
	ready := make(chan string, 1) // one send at most; never blocks the reader
	go func() {
		defer close(d.drained)
		r := bufio.NewReader(stderr)
		sent := false
		for {
			line, err := r.ReadBytes('\n')
			d.mu.Lock()
			d.log.Write(line)
			d.mu.Unlock()
			if !sent && len(line) > 0 {
				var ll logLine
				if json.Unmarshal(line, &ll) == nil {
					switch ll.Msg {
					case "pprof listening":
						d.mu.Lock()
						d.pprofAddr = ll.Addr
						d.mu.Unlock()
					case "listening":
						ready <- ll.Addr
						sent = true
					}
				}
			}
			if err != nil {
				return
			}
		}
	}()
	go func() {
		<-d.drained // Wait closes the pipe, so read it to EOF first
		d.waitErr = cmd.Wait()
		close(d.exited)
	}()
	select {
	case addr := <-ready:
		d.addr = addr
		return d, nil
	case <-d.exited:
		return nil, fmt.Errorf("biasmitd exited before listening (%v): %s", d.waitErr, d.tail())
	case <-time.After(60 * time.Second):
		d.kill()
		return nil, errors.New("biasmitd did not log a listening address within 60s")
	}
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

func (d *daemon) pprof() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.pprofAddr
}

// tail returns the end of the daemon log, for error messages.
func (d *daemon) tail() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	s := d.log.String()
	if len(s) > 2000 {
		s = s[len(s)-2000:]
	}
	return s
}

// stop sends SIGTERM, waits for the process to exit, and fails unless
// the daemon logged a clean drain.
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		d.kill()
		return fmt.Errorf("signalling biasmitd: %w", err)
	}
	select {
	case <-d.exited:
	case <-time.After(30 * time.Second):
		d.kill()
		return errors.New("biasmitd did not exit within 30s of SIGTERM")
	}
	d.mu.Lock()
	clean := strings.Contains(d.log.String(), `"msg":"drained cleanly"`)
	d.mu.Unlock()
	if d.waitErr != nil || !clean {
		return fmt.Errorf("biasmitd did not drain cleanly (exit: %v): %s", d.waitErr, d.tail())
	}
	return nil
}

// cpu is the CPU time the exited daemon used over its whole life, user
// plus system, from the kernel's accounting at exit (microsecond
// resolution).
func (d *daemon) cpu() time.Duration {
	return d.cmd.ProcessState.UserTime() + d.cmd.ProcessState.SystemTime()
}

// kill is the error-path stop: SIGKILL, then wait for the process.
func (d *daemon) kill() {
	_ = d.cmd.Process.Kill() // the process may already be gone
	<-d.exited
}

// rssMB reads a process's resident set size from /proc.
func rssMB(pid int) (float64, error) {
	data, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			f := strings.Fields(rest)
			if len(f) < 1 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmRSS in /proc/%d/status", pid)
}

// cpuSeconds reads a process's user plus system CPU time from
// /proc/<pid>/stat. Time the hypervisor steals from the vCPU is not
// charged to the process.
func cpuSeconds(pid int) (float64, error) {
	data, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/stat")
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields after it are
	// space-separated, utime and stime being fields 14 and 15.
	s := string(data)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseFloat(f[11], 64)
	stime, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	return (utime + stime) / clockTicks, nil
}

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat times; 100 on
// every Linux architecture Go supports.
const clockTicks = 100

// rssSampler samples a process's RSS every interval until stop is called.
type rssSampler struct {
	stopc   chan struct{}
	done    chan struct{}
	samples []float64
	err     error
}

func sampleRSS(pid int, interval time.Duration) *rssSampler {
	s := &rssSampler{stopc: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			mb, err := rssMB(pid)
			if err != nil {
				s.err = err
				return
			}
			s.samples = append(s.samples, mb)
			select {
			case <-s.stopc:
				return
			case <-t.C:
			}
		}
	}()
	return s
}

// stop ends sampling and returns the samples taken.
func (s *rssSampler) stop() ([]float64, error) {
	close(s.stopc)
	<-s.done
	return s.samples, s.err
}
