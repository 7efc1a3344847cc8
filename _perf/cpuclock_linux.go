package main

import (
	"syscall"
	"time"
	"unsafe"
)

// clockProcessCPUTime is Linux's CLOCK_PROCESS_CPUTIME_ID.
const clockProcessCPUTime = 2

// cpuNow returns the CPU time the process has used so far, all of its
// threads counted, to the nanosecond. The benchmark times the program
// on this clock rather than the wall clock: the program never blocks
// (its disks are simulated in memory), so its CPU time is the time it
// takes on a core of its own, and time other tenants of a shared host
// take from it does not count.
func cpuNow() time.Duration {
	var ts syscall.Timespec
	if _, _, e := syscall.RawSyscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTime, uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		panic(e) // the clock exists on every Linux the toolchain supports
	}
	return time.Duration(ts.Nano())
}
