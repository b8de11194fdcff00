package service

import (
	"context"
	"sync"
)

// envelope carries one op into a shard queue together with the channel its
// reply goes back on.
type envelope[Op, Rep any] struct {
	op    Op
	reply chan Rep
}

// Shards is the shard runtime both streaming engines run on (DESIGN.md §5):
// K event-loop goroutines, each the sole owner of one shard's state, fed
// over a bounded queue and answering on pooled per-op reply channels. A
// loop drains up to a batch of queued ops at a time and decides each, in
// arrival order, through its shard's handle function; the engine above it
// keeps only its op and reply types, its handle, and its ledger.
//
// The embedded Gate is the engine's lifecycle: callers bracket every
// submission with Enter/Exit, cancelled waits hand their pending replies to
// tracked drainers (Abandon), and Close shuts everything down in order.
type Shards[Op, Rep any] struct {
	Gate

	queues    []chan envelope[Op, Rep]
	stats     Op    // the op whose reply is a shard's state snapshot
	final     []Rep // per shard: handle(stats) at loop exit; read after loops.Wait
	loops     sync.WaitGroup
	queueLen  int
	replyPool sync.Pool // chan Rep, buffered 1: one send and one receive per use
}

// NewShards starts one event loop per handle function. handle[i] decides
// the ops queued to shard i and is called only from that shard's loop, so
// it may own its state without locks. stats is the op whose reply snapshots
// a shard (Snapshots). batchSize bounds how many queued ops a loop drains
// per iteration (≤ 0 means 64); queueLen is each shard's queue capacity
// (≤ 0 means 256). Build every shard before calling NewShards: once it
// returns, the loops run until Close.
func NewShards[Op, Rep any](handle []func(Op) Rep, stats Op, batchSize, queueLen int) *Shards[Op, Rep] {
	if batchSize <= 0 {
		batchSize = 64
	}
	if queueLen <= 0 {
		queueLen = 256
	}
	s := &Shards[Op, Rep]{
		queues:   make([]chan envelope[Op, Rep], len(handle)),
		stats:    stats,
		final:    make([]Rep, len(handle)),
		queueLen: queueLen,
	}
	s.replyPool.New = func() any { return make(chan Rep, 1) }
	for i := range handle {
		s.queues[i] = make(chan envelope[Op, Rep], queueLen)
	}
	s.loops.Add(len(handle))
	for i, h := range handle {
		go s.loop(i, h, batchSize)
	}
	return s
}

// Len returns the number of shards.
func (s *Shards[Op, Rep]) Len() int { return len(s.queues) }

// QueueLen returns each shard's queue capacity, the natural window of a
// Stream over the runtime.
func (s *Shards[Op, Rep]) QueueLen() int { return s.queueLen }

// loop is shard i's event loop: drain a batch of queued ops, decide each in
// arrival order, answer on the per-op reply channels. It exits when Close
// closes the queue, leaving the shard's final snapshot behind.
func (s *Shards[Op, Rep]) loop(i int, handle func(Op) Rep, batchSize int) {
	defer s.loops.Done()
	q := s.queues[i]
	batch := make([]envelope[Op, Rep], 0, batchSize)
	for env := range q {
		batch = append(batch[:0], env)
	drain:
		for len(batch) < batchSize {
			select {
			case next, open := <-q:
				if !open {
					break drain
				}
				batch = append(batch, next)
			default:
				break drain
			}
		}
		for _, env := range batch {
			env.reply <- handle(env.op)
		}
	}
	s.final[i] = handle(s.stats)
}

// Send enqueues op on shard and returns its reply channel without waiting;
// consume it with Recv or Await. Enqueueing honours ctx: when the queue is
// full and ctx is done, nothing is enqueued and ctx's error is returned —
// the cancellation boundary of the serving contract.
func (s *Shards[Op, Rep]) Send(ctx context.Context, shard int, op Op) (chan Rep, error) {
	ch := s.replyPool.Get().(chan Rep)
	if err := trySend(ctx, s.queues[shard], envelope[Op, Rep]{op, ch}); err != nil {
		s.replyPool.Put(ch)
		return nil, err
	}
	return ch, nil
}

// SendNow enqueues op without a cancellation boundary and returns its reply
// channel. It is for ops that must run to completion to keep an engine's
// invariants (phase-2 releases, snapshots).
func (s *Shards[Op, Rep]) SendNow(shard int, op Op) chan Rep {
	ch := s.replyPool.Get().(chan Rep)
	s.queues[shard] <- envelope[Op, Rep]{op, ch}
	return ch
}

// Call enqueues op without a cancellation boundary and waits for its reply.
func (s *Shards[Op, Rep]) Call(shard int, op Op) Rep { return s.Recv(s.SendNow(shard, op)) }

// Recv receives the reply on ch and recycles the channel.
func (s *Shards[Op, Rep]) Recv(ch chan Rep) Rep {
	r := <-ch
	s.replyPool.Put(ch)
	return r
}

// Await waits for the reply on ch until ctx is done. On cancellation it
// returns ctx's error and ch stays pending: the caller hands it to Abandon,
// so the decision is still accounted.
func (s *Shards[Op, Rep]) Await(ctx context.Context, ch chan Rep) (Rep, error) {
	select {
	case r := <-ch:
		s.replyPool.Put(ch)
		return r, nil
	case <-ctx.Done():
		var zero Rep
		return zero, ctx.Err()
	}
}

// Abandon hands reply channels whose ops are already queued to a tracked
// drainer, which receives them in order and passes each index and reply to
// resolve (nil just recycles them). A caller that stops waiting — a
// cancelled Await, or a batch cancelled after firing a prefix — keeps the
// engine's accounting and the reply pool exact this way; Drain and Close
// wait for the drainer.
func (s *Shards[Op, Rep]) Abandon(fired []chan Rep, resolve func(i int, r Rep)) {
	s.Go(func() {
		for i, ch := range fired {
			r := s.Recv(ch)
			if resolve != nil {
				resolve(i, r)
			}
		}
	})
}

// Snapshots returns one stats reply per shard: live, through a stats op
// queued behind each shard's pending work, while the runtime is open; the
// final snapshots recorded at loop exit once it is closed. The Enter
// registration makes a live snapshot safe against a concurrent Close, which
// drains it before closing the queues.
func (s *Shards[Op, Rep]) Snapshots() []Rep {
	out := make([]Rep, len(s.queues))
	if !s.Enter() {
		s.loops.Wait()
		copy(out, s.final)
		return out
	}
	replies := make([]chan Rep, len(s.queues))
	for i := range s.queues {
		replies[i] = s.SendNow(i, s.stats)
	}
	// The ops are queued and shards answer them even if Close runs now, so
	// the gate can be left before collecting.
	s.Exit()
	for i, ch := range replies {
		out[i] = s.Recv(ch)
	}
	return out
}

// Close shuts the runtime down: later Enters fail, callers inside the gate
// finish, drainers are waited out (a cross-shard abort may still enqueue
// releases), the queues close, every loop records its final snapshot and
// exits, and drainers spawned meanwhile — which only consume replies
// already sent — are waited out too. Statistics read afterwards are exact.
// Close is idempotent.
func (s *Shards[Op, Rep]) Close() {
	s.Gate.Close(func() {
		for _, q := range s.queues {
			close(q)
		}
		s.loops.Wait()
	})
}
