package service

import (
	"context"
	"errors"
	"testing"
)

// toyOp is a toy shard operation: seq identifies it; a stats op asks for
// the shard's log; hold, when set, parks the loop until it is closed.
type toyOp struct {
	seq   int
	stats bool
	hold  chan struct{}
}

// toyRep answers a toyOp: the number of ops the shard had handled before
// it, or (for stats) the shard's whole log.
type toyRep struct {
	before int
	log    []int
}

// toyShards starts a runtime of k toy shards, each logging the seqs it
// handles in order.
func toyShards(k, batchSize, queueLen int) *Shards[toyOp, toyRep] {
	handle := make([]func(toyOp) toyRep, k)
	for i := range handle {
		var log []int
		handle[i] = func(o toyOp) toyRep {
			if o.stats {
				return toyRep{log: append([]int(nil), log...)}
			}
			if o.hold != nil {
				<-o.hold
			}
			log = append(log, o.seq)
			return toyRep{before: len(log) - 1}
		}
	}
	return NewShards(handle, toyOp{stats: true}, batchSize, queueLen)
}

var errToyClosed = errors.New("toy: closed")

// toySubmit is the engine-side submission shape: enter the gate, send,
// wait, exit.
func toySubmit(ctx context.Context, s *Shards[toyOp, toyRep], shard int, o toyOp) (toyRep, error) {
	if !s.Enter() {
		return toyRep{}, errToyClosed
	}
	defer s.Exit()
	ch, err := s.Send(ctx, shard, o)
	if err != nil {
		return toyRep{}, err
	}
	return s.Await(ctx, ch)
}

// TestShardsFIFOAcrossBatches pipelines more ops than one batch (and one
// queue) holds into each shard and checks every shard handled its ops in
// exactly send order, live and in the final snapshot after Close.
func TestShardsFIFOAcrossBatches(t *testing.T) {
	const k, perShard = 3, 200
	s := toyShards(k, 4, 8)
	if s.Len() != k || s.QueueLen() != 8 {
		t.Fatalf("Len %d QueueLen %d, want %d and 8", s.Len(), s.QueueLen(), k)
	}
	ctx := context.Background()
	var replies []chan toyRep
	for seq := 0; seq < k*perShard; seq++ {
		ch, err := s.Send(ctx, seq%k, toyOp{seq: seq})
		if err != nil {
			t.Fatal(err)
		}
		replies = append(replies, ch)
	}
	for seq, ch := range replies {
		if got := s.Recv(ch).before; got != seq/k {
			t.Fatalf("op %d handled after %d ops of its shard, want %d", seq, got, seq/k)
		}
	}
	check := func(when string, snaps []toyRep) {
		t.Helper()
		for i, snap := range snaps {
			if len(snap.log) != perShard {
				t.Fatalf("%s: shard %d logged %d ops, want %d", when, i, len(snap.log), perShard)
			}
			for j, seq := range snap.log {
				if seq != j*k+i {
					t.Fatalf("%s: shard %d op %d is seq %d, want %d", when, i, j, seq, j*k+i)
				}
			}
		}
	}
	check("live", s.Snapshots())
	s.Close()
	check("final", s.Snapshots())
}

// TestShardsCloseHandlesQueued enqueues an op without waiting for it,
// closes the runtime, and checks the op was still handled and shows in
// the final snapshot; submissions after Close get the closed error.
func TestShardsCloseHandlesQueued(t *testing.T) {
	s := toyShards(2, 0, 0)
	ctx := context.Background()
	if _, err := toySubmit(ctx, s, 1, toyOp{seq: 1}); err != nil {
		t.Fatal(err)
	}
	ch, err := s.Send(ctx, 1, toyOp{seq: 2})
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	s.Close() // idempotent
	if got := s.Recv(ch).before; got != 1 {
		t.Fatalf("queued op handled after %d ops, want 1", got)
	}
	snaps := s.Snapshots()
	if len(snaps[0].log) != 0 || len(snaps[1].log) != 2 || snaps[1].log[1] != 2 {
		t.Fatalf("final snapshots %+v, want shard 1 to log [1 2]", snaps)
	}
	if _, err := toySubmit(ctx, s, 0, toyOp{seq: 3}); !errors.Is(err, errToyClosed) {
		t.Fatalf("submit after Close: %v, want the closed error", err)
	}
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestShardsSendFullQueueCancelled fills a shard's queue behind a parked
// op and checks a send under a cancelled ctx fails with ctx's error and
// enqueues nothing, while a waiter cancelled mid-await still has its op
// resolved through Abandon.
func TestShardsSendFullQueueCancelled(t *testing.T) {
	s := toyShards(1, 1, 1)
	ctx := context.Background()
	hold := make(chan struct{})
	parked, err := s.Send(ctx, 0, toyOp{seq: 0, hold: hold})
	if err != nil {
		t.Fatal(err)
	}
	// The loop takes the parked op off the queue; this one then fills it.
	queued, err := s.Send(ctx, 0, toyOp{seq: 1})
	if err != nil {
		t.Fatal(err)
	}
	dead, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := s.Send(dead, 0, toyOp{seq: 2}); !errors.Is(err, context.Canceled) {
		t.Fatalf("send to a full queue under a cancelled ctx: %v, want context.Canceled", err)
	}
	if _, err := s.Await(dead, parked); !errors.Is(err, context.Canceled) {
		t.Fatalf("await under a cancelled ctx: %v, want context.Canceled", err)
	}
	resolved := make(chan int, 2)
	s.Abandon([]chan toyRep{parked, queued}, func(i int, r toyRep) { resolved <- i })
	close(hold)
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if a, b := <-resolved, <-resolved; a != 0 || b != 1 {
		t.Fatalf("abandoned replies resolved as %d, %d, want 0, 1", a, b)
	}
	s.Close()
	if log := s.Snapshots()[0].log; len(log) != 2 || log[0] != 0 || log[1] != 1 {
		t.Fatalf("shard logged %v, want [0 1]: the cancelled send must enqueue nothing", log)
	}
}
