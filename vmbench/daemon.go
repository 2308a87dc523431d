package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one vmallocd subprocess serving a journal directory on its own
// loopback port.
type daemon struct {
	bin  string
	dir  string
	url  string
	cmd  *exec.Cmd
	log  *os.File
	done chan error // receives cmd.Wait's result once
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

// startDaemon execs bin on dir with the first-boot flags args (nil for a
// recovering boot) and waits until GET /readyz answers 200.
func startDaemon(bin, dir string, args []string) (*daemon, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		d, err := tryStartDaemon(bin, dir, args)
		if err == nil {
			return d, nil
		}
		lastErr = err
	}
	return nil, lastErr
}

func tryStartDaemon(bin, dir string, args []string) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	logf, err := os.OpenFile(dir+".log", os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	argv := append([]string{"-dir", dir, "-addr", addr}, args...)
	cmd := exec.Command(bin, argv...)
	cmd.Stdout = logf
	cmd.Stderr = logf
	// A benchmark that dies without its deferred kills takes the daemon
	// with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("exec %s: %w", bin, err)
	}
	d := &daemon{bin: bin, dir: dir, url: "http://" + addr, cmd: cmd, log: logf, done: make(chan error, 1)}
	go func() { d.done <- cmd.Wait() }()
	if err := d.waitReady(60 * time.Second); err != nil {
		d.kill()
		return nil, fmt.Errorf("vmallocd on %s: %w; log tail: %s", addr, err, d.logTail())
	}
	return d, nil
}

// waitReady polls GET /readyz until it answers 200, the process exits or
// the timeout passes.
func (d *daemon) waitReady(timeout time.Duration) error {
	hc := &http.Client{Timeout: time.Second}
	defer hc.CloseIdleConnections()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		select {
		case err := <-d.done:
			d.done <- err
			return fmt.Errorf("exited before ready: %v", err)
		default:
		}
		resp, err := hc.Get(d.url + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(time.Millisecond)
	}
	return errors.New("not ready in time")
}

// kill sends SIGKILL to the daemon's own pid and waits for it to exit.
func (d *daemon) kill() {
	if d == nil || d.cmd == nil {
		return
	}
	_ = d.cmd.Process.Signal(syscall.SIGKILL) // already exited is fine
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	select {
	case <-d.done:
	case <-ctx.Done():
	}
	d.cmd = nil
	d.log.Close()
}

func (d *daemon) logTail() string {
	data, _ := os.ReadFile(d.dir + ".log")
	if len(data) > 2000 {
		data = data[len(data)-2000:]
	}
	return strings.TrimSpace(string(data))
}

// peakRSSMB reads the daemon's VmHWM (peak resident set) in MiB.
func (d *daemon) peakRSSMB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat CPU times; Linux
// fixes it at 100 on every architecture Go supports.
const clockTicks = 100

// cpuTime reads the daemon's user+system CPU time.
func (d *daemon) cpuTime() (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; fields resume after its ')'.
	i := bytes.LastIndexByte(data, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat")
	}
	f := strings.Fields(string(data[i+1:]))
	if len(f) < 13 {
		return 0, errors.New("short /proc stat")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("bad CPU fields in /proc stat")
	}
	return time.Duration(ut+st) * time.Second / clockTicks, nil
}
