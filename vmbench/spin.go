package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"syscall"
	"unsafe"
)

// On a shared virtual machine a vCPU with nothing to run halts, and the
// hypervisor hands its physical CPU to a neighbour; a request that wakes
// it then waits until the hypervisor schedules the vCPU again. How long
// depends on how busy the neighbours are: from one minute to the next it
// moved the benchmark's wall-clock figures by a factor of up to 2.6 on a
// 2-vCPU machine. So while a run measures, a spinner process keeps every
// CPU busy at the lowest priority the kernel has (SCHED_IDLE): any other
// thread that wakes preempts it at once, so it only fills time in which
// the CPU would have halted.

// schedIdle is SCHED_IDLE from linux/sched.h.
const schedIdle = 5

// spin keeps every CPU busy at SCHED_IDLE priority until it is killed,
// after printing "spinning" once every spinning thread is idle-class.
func spin() error {
	n := runtime.NumCPU()
	runtime.GOMAXPROCS(n)
	ready := make(chan error, n)
	for i := 0; i < n; i++ {
		go func() {
			runtime.LockOSThread()
			var param struct{ priority int32 }
			// Thread id 0 is the calling thread.
			if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedIdle, uintptr(unsafe.Pointer(&param))); e != 0 {
				ready <- fmt.Errorf("sched_setscheduler(SCHED_IDLE): %w", e)
				return
			}
			ready <- nil
			for {
			}
		}()
	}
	for i := 0; i < n; i++ {
		if err := <-ready; err != nil {
			return err
		}
	}
	fmt.Println("spinning")
	select {}
}

// startSpinner starts this binary as the spinner and waits until it spins.
// stop kills it and waits for it to exit.
func startSpinner() (stop func(), err error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-spin")
	cmd.Stderr = os.Stderr
	// A benchmark that dies without its deferred stop takes the spinner
	// with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	stop = func() {
		_ = cmd.Process.Kill() // already exited is fine
		_ = cmd.Wait()
	}
	if line, err := bufio.NewReader(out).ReadString('\n'); err != nil || line != "spinning\n" {
		stop()
		return nil, fmt.Errorf("spinner did not start: %q %v", line, err)
	}
	return stop, nil
}
