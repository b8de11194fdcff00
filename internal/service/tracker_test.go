package service

import (
	"context"
	"errors"
	"testing"
)

// TestDrainTracker covers the gate's background-drainer accounting that
// both engines' Drain/Close rely on: Go tracks, Drain waits the drainer
// out (or gives up with ctx), and a closed gate refuses Enter.
func TestDrainTracker(t *testing.T) {
	var g Gate
	if !g.idle() {
		t.Fatal("fresh gate not idle")
	}
	release := make(chan struct{})
	started := make(chan struct{})
	g.Go(func() {
		close(started)
		<-release
	})
	<-started
	if g.idle() {
		t.Fatal("gate idle while a drainer is running")
	}
	// Drain must give up when the context dies before idleness.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := g.Drain(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Drain on a dead context: %v, want context.Canceled", err)
	}
	close(release)
	if err := g.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !g.Enter() {
		t.Fatal("open gate refused Enter")
	}
	g.Exit()
	g.Close(nil)
	g.Close(nil) // idempotent
	if g.Enter() || !g.Closed() {
		t.Fatal("closed gate admitted a caller")
	}
}

// TestTrySend covers the shard-queue cancellation boundary: the
// non-blocking fast path, the blocking path once the queue drains, and
// the context error when the queue stays full.
func TestTrySend(t *testing.T) {
	ctx := context.Background()
	ch := make(chan int, 1)
	if err := trySend(ctx, ch, 1); err != nil {
		t.Fatal(err)
	}
	// Queue now full: a concurrent consumer unblocks the slow path.
	done := make(chan error, 1)
	go func() { done <- trySend(ctx, ch, 2) }()
	if got := <-ch; got != 1 {
		t.Fatalf("dequeued %d, want 1", got)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	// Full queue and a dead context: the send must fail, not block.
	dead, cancel := context.WithCancel(context.Background())
	cancel()
	if err := trySend(dead, ch, 3); !errors.Is(err, context.Canceled) {
		t.Fatalf("trySend on a full queue with a dead context: %v, want context.Canceled", err)
	}
}
