package main

import (
	"runtime"
	"syscall"
	"time"
)

// A shared host's CPUs do not run at one speed: other tenants' load on
// the same cores and caches changed the CPU time of one fixed loop by a
// quarter to a third between runs minutes apart on a 2-core VM, and the
// serving stack's CPU time per decision moved with it. The calibration
// kernel measures that speed at the start of every cycle, and a run's
// CPU figures are scaled by the median of its kernel times to read at
// one reference speed. Over ten runs of each workload this took the
// spread (IQR/median) of cpu_us_per_decision from 0.127, 0.098, 0.059
// and 0.119 to 0.073, 0.093, 0.022 and 0.055 (single-edge-durable,
// paths-weighted, cover-repeats, routed-mix).
//
// The kernel is fixed benchmark code, never the program's, so no change
// to the program moves it. It does the kinds of work the serving stack
// does: dependent integer arithmetic, random updates over a table larger
// than the L2 cache, and probes into an open-addressed hash table. Both
// tables are fixed arrays outside the Go heap, so the kernel neither
// allocates nor moves the collector's heap goal (a 5 MB heap table and
// map cut single-edge-durable's set-up CPU time by a third, through
// fewer collections); they add the same 4.3 MB to every phase's
// peak_rss_mb.

// calibrationRef is the kernel's CPU time on the 2-core VM the benchmark
// was defined on, at a quiet moment: CPU figures are reported as they
// would read on that host.
const calibrationRef = 16 * time.Millisecond

const (
	calibrationIters = 3_200_000
	calibrationTable = 1 << 19 // uint64s: 4 MiB
	calibrationSlots = 1 << 15 // hash slots, half of them filled
)

var (
	calTable [calibrationTable]uint64
	calKeys  [calibrationSlots]uint64
	calSink  uint64
)

// calibrate runs the kernel and returns its CPU time in seconds. The
// time is its own thread's, not the process's, so the program's
// goroutines still winding down from set-up are not charged to it.
func calibrate() float64 {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	start := threadCPU()
	clear(calKeys[:])
	x := uint64(88172645463325252)
	for i := 0; i < calibrationIters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		calTable[x&(calibrationTable-1)] += x
		if i%8 == 0 {
			// Insert or find one of calibrationSlots/2 keys by linear
			// probing; key 0 marks an empty slot.
			k := x%(calibrationSlots/2) + 1
			for j := (k * 0x9E3779B97F4A7C15) >> 49; ; j = (j + 1) & (calibrationSlots - 1) {
				if calKeys[j] == k || calKeys[j] == 0 {
					calKeys[j] = k
					break
				}
			}
		}
	}
	calSink += calTable[7] + calKeys[1]
	return threadCPU() - start
}

// rusageThread is Linux's RUSAGE_THREAD, which package syscall does not
// name.
const rusageThread = 1

// threadCPU is the CPU time the calling OS thread has used, in seconds.
func threadCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(rusageThread, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// speedScale is the factor that turns CPU time measured in a run whose
// kernel took calCPU seconds into CPU time at the reference speed.
func speedScale(calCPU float64) float64 {
	return ratio(calibrationRef.Seconds(), calCPU)
}
