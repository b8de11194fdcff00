package coverengine

import (
	"context"
	"errors"
	"fmt"
	"io"
	"testing"

	"admission/internal/rng"
	"admission/internal/setcover"
)

// TestCoverStreamMatchesSubmit drives one cover engine through the Stream
// API and a twin through sequential Submit: on one shard with the same
// seed the decision streams must be identical — same arrivals, same newly
// bought sets, same final ledger.
func TestCoverStreamMatchesSubmit(t *testing.T) {
	r := rng.New(19)
	ins, err := setcover.RandomInstance(24, 48, 0.25, 3, false, r)
	if err != nil {
		t.Fatal(err)
	}
	arrivals, err := setcover.RandomArrivals(ins, 96, 1.0, r)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	ref, err := New(ins, Config{Shards: 1, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	want := make([]Decision, 0, len(arrivals))
	for _, j := range arrivals {
		d, err := ref.Submit(ctx, j)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, d)
	}

	eng, err := New(ins, Config{Shards: 1, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	st, err := eng.Stream(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range arrivals {
		if err := st.Send(j); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	got := make([]Decision, 0, len(arrivals))
	for {
		d, err := st.Recv()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, d)
	}
	if len(got) != len(want) {
		t.Fatalf("stream yielded %d decisions, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Seq != want[i].Seq || got[i].Element != want[i].Element ||
			got[i].Arrival != want[i].Arrival ||
			fmt.Sprint(got[i].NewSets) != fmt.Sprint(want[i].NewSets) ||
			(got[i].Err == nil) != (want[i].Err == nil) {
			t.Fatalf("decision %d diverged: stream %+v, submit %+v", i, got[i], want[i])
		}
	}
	if ref.Cost() != eng.Cost() || ref.ChosenCount() != eng.ChosenCount() {
		t.Fatalf("ledger diverged: stream cost %v/%d sets, submit %v/%d",
			eng.Cost(), eng.ChosenCount(), ref.Cost(), ref.ChosenCount())
	}
}

// TestCoverStreamAfterClose checks Stream refuses to open on a closed
// engine.
func TestCoverStreamAfterClose(t *testing.T) {
	r := rng.New(23)
	ins, err := setcover.RandomInstance(8, 12, 0.4, 2, false, r)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(ins, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	eng.Close()
	if _, err := eng.Stream(context.Background()); err != ErrClosed {
		t.Fatalf("Stream on closed engine: got %v, want ErrClosed", err)
	}
}

// TestCoverCancellationKeepsLedgerExact cancels a SubmitBatch and a Stream
// mid-dispatch against one-slot shard queues, closes the engine, and
// checks every arrival that reached a shard was accounted exactly once:
// the request counter equals the arrivals the shards served, and the
// ledger's cost is the summed cost of the chosen sets. Every element lies
// in every set, so no arrival in the test can saturate and refuse.
func TestCoverCancellationKeepsLedgerExact(t *testing.T) {
	const n, m = 4, 200
	ins := &setcover.Instance{N: n, Sets: make([][]int, m), Costs: make([]float64, m)}
	for id := range ins.Sets {
		ins.Sets[id] = []int{0, 1, 2, 3}
		ins.Costs[id] = float64(1 + id%5)
	}
	eng, err := New(ins, Config{Shards: 2, Seed: 3, BatchSize: 1, QueueLen: 1})
	if err != nil {
		t.Fatal(err)
	}
	elements := make([]int, 64)
	for i := range elements {
		elements[i] = i % n
	}

	// A batch under a dead context dispatches until a shard queue is full,
	// then fails; the already-fired prefix is resolved in the background.
	dead, cancel := context.WithCancel(context.Background())
	cancel()
	for attempt := 0; attempt < 3; attempt++ {
		if _, err := eng.SubmitBatch(dead, elements); err != nil {
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("SubmitBatch: %v", err)
			}
			break
		}
	}

	// A stream cancelled with decisions still pending. Its window is two
	// decisions deep, so a receiver drains it while the sender runs.
	ctx, cancel := context.WithCancel(context.Background())
	st, err := eng.Stream(ctx)
	if err != nil {
		t.Fatal(err)
	}
	received := make(chan error, 1)
	go func() {
		for {
			if _, err := st.Recv(); err == io.EOF {
				received <- nil
				return
			} else if err != nil && !errors.Is(err, context.Canceled) {
				received <- err
				return
			}
		}
	}()
	for _, j := range elements {
		if err := st.Send(j); err != nil {
			t.Fatal(err)
		}
	}
	cancel()
	if err := st.Send(0); err == nil {
		t.Fatal("Send after cancel succeeded")
	}
	st.Close()
	if err := <-received; err != nil {
		t.Fatalf("Recv: %v", err)
	}

	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	served := 0
	for _, snap := range eng.snapshots() {
		served += snap.arrivals
	}
	stats := eng.Stats()
	if stats.Errors != 0 || stats.Requests != stats.Accepted+stats.Errors || stats.Requests != int64(served) {
		t.Fatalf("stats %+v, want Requests == Accepted + Errors == %d served arrivals", stats, served)
	}
	if served < len(elements) {
		t.Fatalf("shards served %d arrivals, want at least the %d streamed", served, len(elements))
	}
	want := 0.0
	for _, id := range eng.Chosen() {
		want += ins.Cost(id)
	}
	if got := eng.Cost(); got != want {
		t.Fatalf("Cost() = %v, want %v summed over Chosen()", got, want)
	}
}
