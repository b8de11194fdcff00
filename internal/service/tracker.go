package service

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Gate is the lifecycle gate every engine shares: a closed flag, a count of
// callers on the serving path, and the tracked background drainers that
// finish the accounting of operations whose caller stopped waiting. Enter
// and Exit bracket each submission; Close shuts the gate and waits both
// counts out, so statistics read afterwards are exact. The zero Gate is
// open.
type Gate struct {
	closed   atomic.Bool
	inflight atomic.Int64
	drainers atomic.Int64 // running background drainers (Go)
	once     sync.Once
}

// Enter registers a caller on the serving path. It returns false once the
// gate is closed. The counter-then-flag order pairs with Close's
// flag-then-drain order: a caller that incremented before Close set the
// flag is drained; one that incremented after observes the flag and backs
// out. (A plain WaitGroup would panic here: Add may not race with Wait.)
func (g *Gate) Enter() bool {
	g.inflight.Add(1)
	if g.closed.Load() {
		g.inflight.Add(-1)
		return false
	}
	return true
}

// Exit balances a successful Enter.
func (g *Gate) Exit() { g.inflight.Add(-1) }

// Closed reports whether Close has begun.
func (g *Gate) Closed() bool { return g.closed.Load() }

// Go runs fn on a tracked background drainer; Drain and Close wait for it.
func (g *Gate) Go(fn func()) {
	g.drainers.Add(1)
	go func() {
		defer g.drainers.Add(-1)
		fn()
	}()
}

// idle reports whether no caller is on the serving path and no drainer
// runs.
func (g *Gate) idle() bool { return g.inflight.Load() == 0 && g.drainers.Load() == 0 }

// Drain blocks until no caller is on the serving path and no drainer runs,
// or ctx is done. It does not stop new callers — the owner quiesces traffic
// first. The wait parks between polls, so a long drain does not burn a
// core.
func (g *Gate) Drain(ctx context.Context) error {
	return PollIdle(ctx, g.idle)
}

// Close shuts the gate: later Enters fail, callers already inside finish,
// and running drainers are waited out. Then stop, when non-nil, runs the
// owner's shutdown, and the drainers spawned meanwhile are waited out too.
// Close is idempotent; a concurrent or later call returns once the first
// has finished.
func (g *Gate) Close(stop func()) {
	g.once.Do(func() {
		g.closed.Store(true)
		g.drainInflight()
		if stop != nil {
			stop()
			g.drainInflight()
		}
	})
}

// drainInflight blocks until no callers remain on the serving path and no
// drainer runs. Only Close calls it, and the drainers it waits for only
// consume replies already sent or imminently sent, so polling is fine.
func (g *Gate) drainInflight() {
	for !g.idle() {
		runtime.Gosched()
	}
}

// PollIdle blocks until idle() reports true or ctx is done, parking
// briefly between polls so a long drain does not burn a core.
func PollIdle(ctx context.Context, idle func() bool) error {
	for !idle() {
		if err := ctx.Err(); err != nil {
			return err
		}
		time.Sleep(50 * time.Microsecond)
	}
	return nil
}

// trySend enqueues v on ch, honouring ctx only when the channel is full:
// a non-blocking fast path keeps the common case free of select overhead,
// and a full queue waits until there is room or ctx is done.
func trySend[T any](ctx context.Context, ch chan<- T, v T) error {
	select {
	case ch <- v:
		return nil
	default:
	}
	select {
	case ch <- v:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// ShardSeed derives shard i's RNG seed from an engine's base seed. Shard 0
// keeps the base seed, so a one-shard engine is bit-identical to the
// unsharded algorithm it wraps.
func ShardSeed(base uint64, i int) uint64 {
	return base ^ (uint64(i) * 0x9e3779b97f4a7c15)
}
