package graph

import "fmt"

// PartitionEdges partitions the graph's edge IDs into at most k non-empty
// shards, preserving locality: edges sharing an endpoint tend to land in the
// same shard, so routed paths (contiguous edge runs) mostly stay within one
// shard and the engine's cross-shard fallback stays rare.
//
// The heuristic is a deterministic BFS growth over the edge-adjacency
// structure (two edges are adjacent when they share a vertex): each shard
// starts from the lowest-numbered unassigned edge and absorbs adjacent
// unassigned edges breadth-first until it reaches its capacity budget
// ⌈Σc_e/k⌉, then the next shard starts. Disconnected components are handled
// naturally because seeding always restarts from an unassigned edge.
//
// Every edge appears in exactly one shard. Fewer than k shards are returned
// when the graph has fewer than k edges.
func (g *Graph) PartitionEdges(k int) ([][]EdgeID, error) {
	m := len(g.edges)
	if k <= 0 {
		return nil, fmt.Errorf("graph: partition into %d shards", k)
	}
	if m == 0 {
		return nil, fmt.Errorf("graph: cannot partition an edgeless graph")
	}
	if k > m {
		k = m
	}
	totalCap := 0
	for _, e := range g.edges {
		totalCap += e.Capacity
	}
	budget := (totalCap + k - 1) / k

	// incident[v] lists edge IDs touching v (either endpoint), in ID order.
	incident := make([][]EdgeID, g.n)
	for id, e := range g.edges {
		incident[e.From] = append(incident[e.From], EdgeID(id))
		if e.To != e.From {
			incident[e.To] = append(incident[e.To], EdgeID(id))
		}
	}

	assigned := make([]bool, m)
	var shards [][]EdgeID
	next := 0 // lowest candidate seed edge
	for remaining := m; remaining > 0; {
		for assigned[next] {
			next++
		}
		var (
			shard  []EdgeID
			capSum int
			queue  = []EdgeID{EdgeID(next)}
		)
		assigned[next] = true
		// Shards before the last stop at the budget; the last shard absorbs
		// every remaining edge (reseeding across disconnected components) so
		// no more than k shards are ever produced.
		last := len(shards) == k-1
		for len(queue) > 0 || (last && remaining > 0) {
			if len(queue) == 0 {
				for assigned[next] {
					next++
				}
				assigned[next] = true
				queue = append(queue, EdgeID(next))
			}
			id := queue[0]
			queue = queue[1:]
			shard = append(shard, id)
			capSum += g.edges[id].Capacity
			remaining--
			if !last && capSum >= budget {
				// Drain queue back to unassigned so later shards can take it.
				for _, q := range queue {
					assigned[q] = false
				}
				break
			}
			e := g.edges[id]
			for _, v := range []int{e.From, e.To} {
				for _, nb := range incident[v] {
					if !assigned[nb] {
						assigned[nb] = true
						queue = append(queue, nb)
					}
				}
				if e.To == e.From {
					break
				}
			}
		}
		shards = append(shards, shard)
	}
	return shards, nil
}

// PartitionRange partitions the edge index range [0, m) into at most k
// contiguous, size-balanced chunks. It is the fallback partition when only a
// capacity vector is known (no graph structure), used by the engine's
// default configuration; generators that emit paths over consecutive edge
// IDs (line, ring, bundle) keep good locality under it.
func PartitionRange(m, k int) ([][]int, error) {
	if k <= 0 {
		return nil, fmt.Errorf("graph: partition into %d shards", k)
	}
	if m <= 0 {
		return nil, fmt.Errorf("graph: cannot partition %d edges", m)
	}
	if k > m {
		k = m
	}
	parts := make([][]int, 0, k)
	for i := 0; i < k; i++ {
		lo, hi := i*m/k, (i+1)*m/k
		part := make([]int, 0, hi-lo)
		for e := lo; e < hi; e++ {
			part = append(part, e)
		}
		parts = append(parts, part)
	}
	return parts, nil
}

// ResolvePartition returns the partition of [0, n) an engine runs on:
// parts when set, else PartitionRange(n, k) with k ≤ 0 read as 1. Either
// way the result must be an exact, non-empty cover of [0, n) — every index
// in exactly one non-empty shard — or an error is returned.
func ResolvePartition(parts [][]int, n, k int) ([][]int, error) {
	if parts == nil {
		var err error
		if parts, err = PartitionRange(n, max(k, 1)); err != nil {
			return nil, err
		}
	}
	if err := checkPartition(parts, n); err != nil {
		return nil, err
	}
	return parts, nil
}

// checkPartition verifies parts is an exact, non-empty cover of [0, n).
func checkPartition(parts [][]int, n int) error {
	if len(parts) == 0 {
		return fmt.Errorf("graph: empty partition")
	}
	owner := make([]int, n)
	for i := range owner {
		owner[i] = -1
	}
	for si, part := range parts {
		if len(part) == 0 {
			return fmt.Errorf("graph: partition shard %d is empty", si)
		}
		for _, x := range part {
			if x < 0 || x >= n {
				return fmt.Errorf("graph: partition shard %d references %d, outside [0,%d)", si, x, n)
			}
			if owner[x] != -1 {
				return fmt.Errorf("graph: %d in both partition shard %d and shard %d", x, owner[x], si)
			}
			owner[x] = si
		}
	}
	for x, s := range owner {
		if s == -1 {
			return fmt.Errorf("graph: %d missing from partition", x)
		}
	}
	return nil
}
