package main

import (
	"fmt"
	"runtime"
	"syscall"
	"unsafe"
)

// The CPUs of a small VM often run at different speeds for minutes at a
// time, as other guests load the physical cores behind them. A
// single-threaded measurement then reads one speed or another, depending
// on where the kernel happened to place it. The benchmark therefore takes
// its single-threaded measurements pinned to each allowed CPU in turn and
// reports the mean over CPUs of each CPU's figure.

// cpuSet is a sched_setaffinity mask for up to 1024 CPUs.
type cpuSet [16]uint64

func getAffinity() (cpuSet, error) {
	var s cpuSet
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(s), uintptr(unsafe.Pointer(&s))); e != 0 {
		return s, fmt.Errorf("sched_getaffinity: %w", e)
	}
	return s, nil
}

func setAffinity(s cpuSet) error {
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(s), uintptr(unsafe.Pointer(&s))); e != 0 {
		return fmt.Errorf("sched_setaffinity: %w", e)
	}
	return nil
}

// allowedCPUs lists the CPUs the calling thread may run on.
func allowedCPUs() ([]int, error) {
	s, err := getAffinity()
	if err != nil {
		return nil, err
	}
	var cpus []int
	for i := range len(s) * 64 {
		if s[i/64]&(1<<(i%64)) != 0 {
			cpus = append(cpus, i)
		}
	}
	if len(cpus) == 0 {
		return nil, fmt.Errorf("no CPU in the affinity mask")
	}
	return cpus, nil
}

// pinTo binds the calling goroutine and its thread to one CPU. The
// returned function restores the thread's CPU set and unbinds it.
func pinTo(cpu int) (unpin func(), err error) {
	runtime.LockOSThread()
	old, err := getAffinity()
	if err == nil {
		var one cpuSet
		one[cpu/64] = 1 << (cpu % 64)
		err = setAffinity(one)
	}
	if err != nil {
		runtime.UnlockOSThread()
		return nil, err
	}
	return func() {
		// The thread's original set allowed it to run here, so
		// restoring it cannot fail on a kernel that just pinned it.
		_ = setAffinity(old)
		runtime.UnlockOSThread()
	}, nil
}
