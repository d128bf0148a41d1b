package main

import (
	"runtime"
	"syscall"
	"unsafe"
)

// The host is a shared VM whose speed moves by half with its neighbours'
// load: the same daemon CPU work costs from 31 to 48 ms per request
// within minutes. The harness therefore times a fixed reference kernel
// of its own, written here and independent of biasmit, whenever no
// daemon is busy — at the start, before every set-up and at every round
// boundary of the timed phase — and scales the bounded CPU metrics to a
// host on which the kernel takes nominalRefMS. A program change cannot
// move the reference; a host slowdown moves both.

// nominalRefMS is the reference kernel's CPU time on the 2-vCPU x86-64
// host the bounds were set on.
const nominalRefMS = 12.0

// refSlices is how many times one probe runs the kernel.
const refSlices = 3

// hostProbe collects reference-kernel timings over a run.
type hostProbe struct {
	ms []float64
}

// sample runs the reference kernel refSlices times and records each
// run's CPU time on its own thread: like the daemon's CPU time, it
// leaves out what the hypervisor steals.
func (h *hostProbe) sample() {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	for i := 0; i < refSlices; i++ {
		t0, err0 := threadCPU()
		refSink += refKernel()
		t1, err1 := threadCPU()
		if err0 == 0 && err1 == 0 {
			h.ms = append(h.ms, (t1-t0)*1e3)
		}
	}
}

// refMS is the median kernel time over the run, or nominalRefMS before
// any sample.
func (h *hostProbe) refMS() float64 {
	if len(h.ms) == 0 {
		return nominalRefMS
	}
	return median(h.ms)
}

// scale converts CPU time measured on this run's host to the nominal one.
func (h *hostProbe) scale() float64 { return nominalRefMS / h.refMS() }

// threadCPU is the calling thread's CPU seconds from
// CLOCK_THREAD_CPUTIME_ID, which is exact at any moment (the rusage and
// schedstat figures lag by up to a scheduler tick).
func threadCPU() (float64, syscall.Errno) {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	_, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	return float64(ts.Sec) + float64(ts.Nsec)/1e9, errno
}

// refSink keeps the kernel's result live.
var refSink uint64

// refArray is the kernel's working set: 256 KiB, the size of the
// 14-qubit statevector the wide workload streams through.
var refArray [1 << 15]float64

// refKernel is a fixed mix of integer ALU work and streaming over a
// 256 KiB array, the two kinds of work the daemon's simulator does.
func refKernel() uint64 {
	x := uint64(88172645463325252)
	for i := 0; i < 1<<22; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	f := float64(x>>11) / (1 << 53)
	for pass := 0; pass < 64; pass++ {
		for i := range refArray {
			refArray[i] = refArray[i]*0.5 + f
		}
	}
	return x + uint64(refArray[len(refArray)-1])
}
