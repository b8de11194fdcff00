package graph

import (
	"testing"

	"admission/internal/rng"
)

// checkCover verifies every edge of g appears in exactly one shard.
func checkCover(t *testing.T, g *Graph, parts [][]EdgeID, k int) {
	t.Helper()
	if len(parts) == 0 || len(parts) > k {
		t.Fatalf("got %d shards, want 1..%d", len(parts), k)
	}
	seen := make([]bool, g.M())
	for si, part := range parts {
		if len(part) == 0 {
			t.Fatalf("shard %d empty", si)
		}
		for _, id := range part {
			if id < 0 || int(id) >= g.M() {
				t.Fatalf("shard %d: edge %d out of range", si, id)
			}
			if seen[id] {
				t.Fatalf("edge %d assigned twice", id)
			}
			seen[id] = true
		}
	}
	for id, s := range seen {
		if !s {
			t.Fatalf("edge %d unassigned", id)
		}
	}
}

func TestPartitionEdgesCovers(t *testing.T) {
	r := rng.New(1)
	for _, k := range []int{1, 2, 3, 7, 100} {
		for name, mk := range map[string]func() (*Graph, error){
			"grid":   func() (*Graph, error) { return Grid(4, 5, 3) },
			"random": func() (*Graph, error) { return Random(10, 40, 4, r) },
			"bundle": func() (*Graph, error) { return Bundle(6, 2) },
			"line":   func() (*Graph, error) { return Line(9, 5) },
		} {
			g, err := mk()
			if err != nil {
				t.Fatal(err)
			}
			parts, err := g.PartitionEdges(k)
			if err != nil {
				t.Fatalf("%s k=%d: %v", name, k, err)
			}
			checkCover(t, g, parts, k)
		}
	}
}

func TestPartitionEdgesBalance(t *testing.T) {
	g, err := Grid(6, 6, 4)
	if err != nil {
		t.Fatal(err)
	}
	const k = 4
	parts, err := g.PartitionEdges(k)
	if err != nil {
		t.Fatal(err)
	}
	checkCover(t, g, parts, k)
	total := 0
	for _, e := range g.edges {
		total += e.Capacity
	}
	budget := (total + k - 1) / k
	// Non-final shards stop as soon as they meet the budget, so none can
	// exceed budget + the largest single edge capacity.
	for si, part := range parts[:len(parts)-1] {
		capSum := 0
		for _, id := range part {
			capSum += g.edges[id].Capacity
		}
		if capSum > budget+g.MaxCapacity() {
			t.Fatalf("shard %d capacity %d far over budget %d", si, capSum, budget)
		}
	}
}

// TestPartitionEdgesLocality: on a line graph, a BFS partition keeps each
// shard contiguous, so a short path crosses at most one shard boundary.
func TestPartitionEdgesLocality(t *testing.T) {
	g, err := Line(33, 2) // 32 consecutive edges
	if err != nil {
		t.Fatal(err)
	}
	parts, err := g.PartitionEdges(4)
	if err != nil {
		t.Fatal(err)
	}
	checkCover(t, g, parts, 4)
	for si, part := range parts {
		min, max := int(part[0]), int(part[0])
		for _, id := range part {
			if int(id) < min {
				min = int(id)
			}
			if int(id) > max {
				max = int(id)
			}
		}
		if max-min+1 != len(part) {
			t.Fatalf("shard %d not contiguous on a line: span [%d,%d], size %d", si, min, max, len(part))
		}
	}
}

func TestPartitionEdgesErrors(t *testing.T) {
	g := MustNew(3)
	if _, err := g.PartitionEdges(2); err == nil {
		t.Fatal("edgeless graph: want error")
	}
	if _, err := (&Graph{}).PartitionEdges(0); err == nil {
		t.Fatal("k=0: want error")
	}
}

func TestPartitionRange(t *testing.T) {
	parts, err := PartitionRange(10, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != 3 {
		t.Fatalf("want 3 parts, got %d", len(parts))
	}
	next := 0
	for _, part := range parts {
		for _, e := range part {
			if e != next {
				t.Fatalf("want contiguous cover, got %v", parts)
			}
			next++
		}
	}
	if next != 10 {
		t.Fatalf("covered %d of 10 edges", next)
	}
	if parts, err = PartitionRange(2, 5); err != nil || len(parts) != 2 {
		t.Fatalf("k>m should clamp: %v, %v", parts, err)
	}
	if _, err := PartitionRange(0, 1); err == nil {
		t.Fatal("m=0: want error")
	}
	if _, err := PartitionRange(5, 0); err == nil {
		t.Fatal("k=0: want error")
	}
}

// TestResolvePartition covers the engines' partition resolver: the range
// default (k ≤ 0 read as 1, k > n clamped), a valid explicit partition
// passed through, and every way an explicit one can fail to be an exact
// cover.
func TestResolvePartition(t *testing.T) {
	if parts, err := ResolvePartition(nil, 3, 0); err != nil || len(parts) != 1 {
		t.Fatalf("default k=0: %v, %v", parts, err)
	}
	if parts, err := ResolvePartition(nil, 2, 16); err != nil || len(parts) != 2 {
		t.Fatalf("default k>n: %v, %v", parts, err)
	}
	if _, err := ResolvePartition(nil, 0, 1); err == nil {
		t.Fatal("n=0: want error")
	}
	if parts, err := ResolvePartition([][]int{{1}, {0}}, 2, 0); err != nil || parts[0][0] != 1 {
		t.Fatalf("explicit partition: %v, %v", parts, err)
	}
	for name, parts := range map[string][][]int{
		"no shards":    {},
		"empty shard":  {{0, 1}, {}},
		"duplicate":    {{0, 1}, {1}},
		"missing":      {{0}},
		"out of range": {{0, 1}, {7}},
	} {
		if _, err := ResolvePartition(parts, 2, 0); err == nil {
			t.Errorf("%s: want error", name)
		}
	}
}
