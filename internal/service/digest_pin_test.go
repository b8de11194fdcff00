package service_test

import (
	"context"
	"fmt"
	"testing"

	"admission/internal/cluster"
	"admission/internal/core"
	"admission/internal/coverengine"
	"admission/internal/engine"
	"admission/internal/problem"
	"admission/internal/setcover"
)

// TestDigestValuesPinned pins the exact outputs of every FNV-1a user: the
// engines' Fingerprint and StateDigest and the cluster ring's edge owners.
// WAL directories on disk carry the fingerprints and snapshots carry the
// digests, so a change to any of these values orphans existing logs; the
// literals below must only ever change together with a WAL format bump.
func TestDigestValuesPinned(t *testing.T) {
	ctx := context.Background()

	acfg := core.DefaultConfig()
	acfg.Seed = 11
	eng, err := engine.New([]int{2, 1, 3, 2, 1, 2}, engine.Config{Shards: 2, Algorithm: acfg})
	if err != nil {
		t.Fatal(err)
	}
	reqs := []problem.Request{
		{Edges: []int{0}, Cost: 1.5}, {Edges: []int{1}, Cost: 2}, {Edges: []int{1}, Cost: 3},
		{Edges: []int{0, 1}, Cost: 1}, {Edges: []int{2, 3}, Cost: 2.5}, {Edges: []int{3, 4}, Cost: 1},
		{Edges: []int{4}, Cost: 4}, {Edges: []int{4}, Cost: 0.5}, {Edges: []int{5, 0}, Cost: 2},
		{Edges: []int{1}, Cost: 7}, {Edges: []int{2}, Cost: 1}, {Edges: []int{5}, Cost: 3},
	}
	for _, r := range reqs {
		if _, err := eng.Submit(ctx, r); err != nil {
			t.Fatal(err)
		}
	}
	eng.Close()
	if got, want := eng.Fingerprint(), "admission/v1 m=6 k=2 seed=11 cfg=c007e3718aa3e342"; got != want {
		t.Errorf("engine Fingerprint = %q, want %q", got, want)
	}
	if got, want := eng.StateDigest(), uint64(0x114f440b5bad9bba); got != want {
		t.Errorf("engine StateDigest = %#x, want %#x", got, want)
	}

	ins := &setcover.Instance{
		N:     5,
		Sets:  [][]int{{0, 1}, {1, 2, 3}, {3, 4}, {0, 4}, {2}},
		Costs: []float64{1, 1, 1, 1, 1},
	}
	ccfg := core.UnweightedConfig()
	ccfg.Seed = 5
	cov, err := coverengine.New(ins, coverengine.Config{Shards: 2, Seed: 5, Core: &ccfg})
	if err != nil {
		t.Fatal(err)
	}
	for _, el := range []int{0, 3, 1, 3, 4, 2, 0, 4} {
		if _, err := cov.Submit(ctx, el); err != nil {
			t.Fatal(err)
		}
	}
	cov.Close()
	if got, want := cov.Fingerprint(), "cover/v1 n=5 m=5 k=2 mode=reduction seed=5 cfg=5545726bfad9be32"; got != want {
		t.Errorf("cover Fingerprint = %q, want %q", got, want)
	}
	if got, want := cov.StateDigest(), uint64(0x6ade81034ed01a93); got != want {
		t.Errorf("cover StateDigest = %#x, want %#x", got, want)
	}

	ring, err := cluster.NewRing(16, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	owners := make([]int, ring.NumEdges())
	for ge := range owners {
		owners[ge] = ring.Owner(ge)
	}
	if got, want := fmt.Sprint(owners), "[2 1 0 2 0 1 2 2 1 1 1 2 2 2 0 0]"; got != want {
		t.Errorf("ring owners = %s, want %s", got, want)
	}
}
