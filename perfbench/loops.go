package main

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"admission/internal/server"
)

// submitFn posts one submission (a chunk of items) and returns one
// decision per item, in item order — server.Client.Submit's shape.
type submitFn[Req, Dec any] func(ctx context.Context, items []Req) ([]Dec, error)

// loopResult is what one closed or open loop over the sequence measured.
type loopResult struct {
	// attempted counts submitted items; failed counts items whose
	// submission failed (HTTP or transport error) or whose decision line
	// carries a per-item error. Rejections and preemptions are decisions,
	// not failures.
	attempted, failed int64
	elapsed           time.Duration
	// latencies and lags are per submission, open loop only: latency runs
	// from the submission's due time to its last decision, lag from the
	// due time to the moment it was actually sent.
	latencies, lags []time.Duration
}

// deliver sends one chunk, stores its decisions in out and returns how
// many of its items failed.
func deliver[Req any, Dec server.WireDecision](ctx context.Context, submit submitFn[Req, Dec], items []Req, out []Dec) int64 {
	ds, err := submit(ctx, items)
	if err != nil || len(ds) != len(items) {
		return int64(len(items))
	}
	copy(out, ds)
	var n int64
	for _, d := range ds {
		if d.ErrorText() != "" {
			n++
		}
	}
	return n
}

// closedLoop submits items in order in chunks of batch from conns
// goroutines; each sends its next chunk only after the previous reply
// completed, so a slower server receives less load. out receives one
// decision per item.
func closedLoop[Req any, Dec server.WireDecision](ctx context.Context, submit submitFn[Req, Dec], items []Req, out []Dec, batch, conns int) loopResult {
	var next atomic.Int64
	var failed atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				lo := int(next.Add(1)-1) * batch
				if lo >= len(items) {
					return
				}
				hi := min(lo+batch, len(items))
				failed.Add(deliver(ctx, submit, items[lo:hi], out[lo:hi]))
			}
		}()
	}
	wg.Wait()
	return loopResult{attempted: int64(len(items)), failed: failed.Load(), elapsed: time.Since(start)}
}

// openLoop offers items at a fixed rate: chunk k of batch items is due at
// k·batch/rate after the start, whether or not earlier chunks have been
// answered. conns goroutines send the chunks in due order; when both are
// busy a due chunk waits, and that wait counts in its latency because
// latency is timed from the due time, not from the send.
func openLoop[Req any, Dec server.WireDecision](ctx context.Context, submit submitFn[Req, Dec], items []Req, out []Dec, batch, conns int, rate float64) loopResult {
	chunks := (len(items) + batch - 1) / batch
	interval := time.Duration(float64(batch) / rate * float64(time.Second))
	lat := make([]time.Duration, chunks)
	lag := make([]time.Duration, chunks)
	var next atomic.Int64
	var failed atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1) - 1)
				if k >= chunks {
					return
				}
				due := start.Add(time.Duration(k) * interval)
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				sent := time.Now()
				lo := k * batch
				hi := min(lo+batch, len(items))
				failed.Add(deliver(ctx, submit, items[lo:hi], out[lo:hi]))
				lat[k] = time.Since(due)
				lag[k] = sent.Sub(due)
			}
		}()
	}
	wg.Wait()
	return loopResult{attempted: int64(len(items)), failed: failed.Load(), elapsed: time.Since(start), latencies: lat, lags: lag}
}
