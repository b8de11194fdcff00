package main

import "testing"

// TestCalibrateAllocatesNothing keeps the kernel off the Go heap: a heap
// table would raise the collector's goal and cut the program's GC work,
// the thing the CPU figures measure.
func TestCalibrateAllocatesNothing(t *testing.T) {
	if n := testing.AllocsPerRun(2, func() { calibrate() }); n != 0 {
		t.Fatalf("calibrate allocates %v times per run", n)
	}
	if got := speedScale(2 * calibrationRef.Seconds()); got != 0.5 {
		t.Fatalf("a kernel twice as slow as the reference scales by %v, want 0.5", got)
	}
}
