package main

import (
	"fmt"
	"syscall"
	"time"
	"unsafe"
)

// The benchmark times with CPU-time clocks, not wall time. The reference
// host is a shared VM whose hypervisor at times steals 10–20% of a core,
// and wall-time throughput then moved by 30% between runs of the same
// code; the kernel leaves stolen time out of CPU-time clocks. Linux
// only, like the /proc reads for peak RSS.
const (
	clockProcessCPU = 2 // CLOCK_PROCESS_CPUTIME_ID: every thread of the process
	clockThreadCPU  = 3 // CLOCK_THREAD_CPUTIME_ID: the calling thread
)

func readClock(id uintptr) (time.Duration, syscall.Errno) {
	var ts syscall.Timespec
	_, _, errno := syscall.RawSyscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano()), errno
}

// checkCPUClocks reports whether both CPU-time clocks can be read; once
// they can, they cannot fail later.
func checkCPUClocks() error {
	for _, id := range []uintptr{clockProcessCPU, clockThreadCPU} {
		if _, errno := readClock(id); errno != 0 {
			return fmt.Errorf("read CPU-time clock %d: %w", id, errno)
		}
	}
	return nil
}

// processCPU is the CPU time all threads of the process have used.
func processCPU() time.Duration {
	d, _ := readClock(clockProcessCPU)
	return d
}

// threadCPU is the CPU time the calling OS thread has used. Callers lock
// their goroutine to its thread first.
func threadCPU() time.Duration {
	d, _ := readClock(clockThreadCPU)
	return d
}
