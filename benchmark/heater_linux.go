package main

import (
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"syscall"
	"unsafe"
)

// Heaters: one busy-looping child process per CPU, pinned to it and
// scheduled in the kernel's idle class, so it runs only when nothing
// else wants the CPU. Inside the guest they cost the workload nothing
// but a context switch per wake-up; to the hypervisor every vCPU looks
// busy all the time, so it keeps them on separate host CPUs instead of
// folding an idle vCPU onto its sibling's — the state a bursty workload
// otherwise keeps falling back into (see primeCores). Measured on the
// 2-vCPU sandbox over 8 runs each: the run-to-run quartile spread of
// the median repetition wall fell from 12.5% to 2.7% on
// svc_agg_kosarak and from 7.2% to 4.5% on svc_wire_d64; the fsync-
// bound and PEOS workloads did not change. They are an instrument of
// the benchmark, like pinning a CPU governor — not part of the program
// under test, whose CPU time (RUSAGE_SELF) they never enter.

const schedIdle = 5 // SCHED_IDLE

// startHeaters launches the heaters and returns the function that
// kills them and waits for each. Failing to start one is not an error:
// the run proceeds on a noisier machine.
func startHeaters() (stop func()) {
	self, err := os.Executable()
	if err != nil {
		return func() {}
	}
	var procs []*exec.Cmd
	for cpu := 0; cpu < runtime.NumCPU(); cpu++ {
		cmd := exec.Command(self, "-heater", strconv.Itoa(cpu))
		// The kernel kills a heater the moment the benchmark dies, however
		// it dies.
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		if err := cmd.Start(); err != nil {
			continue
		}
		procs = append(procs, cmd)
	}
	return func() {
		for _, cmd := range procs {
			_ = cmd.Process.Kill() // already gone is fine
		}
		for _, cmd := range procs {
			_ = cmd.Wait() // "signal: killed" is the expected outcome
		}
	}
}

// heaterMain is the child: pin, drop to the idle class (or, where that
// is refused, to the lowest nice level), spin until orphaned.
func heaterMain(cpu int) {
	runtime.LockOSThread()
	var mask [16]uint64
	if cpu >= 0 && cpu < len(mask)*64 {
		mask[cpu/64] = 1 << (cpu % 64)
		// Best effort: an unpinned heater still heats.
		_, _, _ = syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask)))
	}
	var param struct{ priority int32 }
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedIdle, uintptr(unsafe.Pointer(&param))); errno != 0 {
		if err := syscall.Setpriority(syscall.PRIO_PROCESS, 0, 19); err != nil {
			// A heater that cannot yield would compete with the workload.
			os.Exit(0)
		}
	}
	parent := os.Getppid()
	for os.Getppid() == parent {
		spinSink[0] += spinKernel(1 << 26)
	}
}
