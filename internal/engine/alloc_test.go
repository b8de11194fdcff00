package engine

import (
	"context"
	"runtime/debug"
	"testing"

	"admission/internal/core"
	"admission/internal/problem"
)

// raceEnabled reports whether the test binary was built with -race, whose
// instrumentation allocates on its own.
func raceEnabled() bool {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return false
	}
	for _, s := range bi.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}

// TestHotPathAllocs pins the allocations of the admission hot path, so the
// shard runtime cannot grow a per-op closure, channel or boxed value: a
// single-shard Submit allocates nothing, and a pipelined batch of 256
// single-edge requests allocates four objects (its decisions, its pending
// list, and amortized growth of per-request state). The capacities are
// large enough that every request is accepted without preemptions, and the
// garbage collector is off while measuring so a pool flush cannot show up
// as allocations.
func TestHotPathAllocs(t *testing.T) {
	if raceEnabled() {
		t.Skip("the race detector allocates")
	}
	caps := make([]int, 64)
	for i := range caps {
		caps[i] = 1 << 13
	}
	eng, err := New(caps, Config{Shards: 4, Algorithm: core.UnweightedConfig()})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))

	ctx := context.Background()
	req := problem.Request{Edges: []int{5}, Cost: 1}
	submit := func() {
		if _, err := eng.Submit(ctx, req); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		submit() // warm the pools
	}
	if got := testing.AllocsPerRun(1000, submit); got != 0 {
		t.Errorf("single-shard Submit: %v allocs/op, want 0", got)
	}

	batch := make([]problem.Request, 256)
	for i := range batch {
		batch[i] = problem.Request{Edges: []int{i % len(caps)}, Cost: 1}
	}
	submitBatch := func() {
		if _, err := eng.SubmitBatchPrevalidated(ctx, batch); err != nil {
			t.Fatal(err)
		}
	}
	submitBatch()
	if got := testing.AllocsPerRun(100, submitBatch); got != 4 {
		t.Errorf("SubmitBatchPrevalidated of %d requests: %v allocs/batch, want 4", len(batch), got)
	}
}
