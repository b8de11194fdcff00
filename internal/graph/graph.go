// Package graph provides the capacitated-network substrate for the
// admission-control problem: directed multigraphs with integer edge
// capacities, standard topology generators (line, ring, star, tree, grid,
// random), and simple-path extraction used by the workload generators.
//
// The algorithms in internal/core never exploit path structure — the paper's
// §6 notes that a request may be an arbitrary edge subset — so the graph
// package's job is to produce *realistic* requests (actual routed paths in a
// network) for the experiments, and to carry the capacity vector. The
// partition heuristics (PartitionEdges, PartitionRange) feed the sharded
// engine of DESIGN.md §5.
//
// Concurrency contract: a Graph is immutable once built, so all read
// methods (paths, partitions) are safe for concurrent use; the generators
// taking an *rng.RNG inherit that generator's single-goroutine
// restriction.
package graph

import (
	"errors"
	"fmt"

	"admission/internal/rng"
)

// EdgeID identifies an edge of a Graph; IDs are dense in [0, M()).
type EdgeID int

// Edge is a directed, capacitated edge.
type Edge struct {
	From, To int
	Capacity int
}

// Graph is a directed multigraph with integer edge capacities.
// Vertices are the integers [0, N()). The zero value is an empty graph;
// use New or a topology constructor.
type Graph struct {
	n     int
	edges []Edge
	// out[v] lists edge IDs leaving v, for path search.
	out [][]EdgeID
}

// New creates an empty graph on n vertices.
func New(n int) (*Graph, error) {
	if n < 0 {
		return nil, fmt.Errorf("graph: negative vertex count %d", n)
	}
	return &Graph{n: n, out: make([][]EdgeID, n)}, nil
}

// MustNew is New that panics on error, for use with constant arguments.
func MustNew(n int) *Graph {
	g, err := New(n)
	if err != nil {
		panic(err)
	}
	return g
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.n }

// M returns the number of edges.
func (g *Graph) M() int { return len(g.edges) }

// AddEdge appends a directed edge and returns its ID.
// Capacity must be positive: the problem definition requires c_e > 0.
func (g *Graph) AddEdge(from, to, capacity int) (EdgeID, error) {
	if from < 0 || from >= g.n || to < 0 || to >= g.n {
		return -1, fmt.Errorf("graph: edge (%d,%d) outside vertex range [0,%d)", from, to, g.n)
	}
	if capacity <= 0 {
		return -1, fmt.Errorf("graph: edge (%d,%d) has non-positive capacity %d", from, to, capacity)
	}
	id := EdgeID(len(g.edges))
	g.edges = append(g.edges, Edge{From: from, To: to, Capacity: capacity})
	g.out[from] = append(g.out[from], id)
	return id, nil
}

// Edge returns the edge with the given ID.
func (g *Graph) Edge(id EdgeID) (Edge, error) {
	if id < 0 || int(id) >= len(g.edges) {
		return Edge{}, fmt.Errorf("graph: edge id %d out of range [0,%d)", id, len(g.edges))
	}
	return g.edges[id], nil
}

// Capacities returns a fresh slice of per-edge capacities indexed by EdgeID.
func (g *Graph) Capacities() []int {
	caps := make([]int, len(g.edges))
	for i, e := range g.edges {
		caps[i] = e.Capacity
	}
	return caps
}

// MaxCapacity returns c = max_e c_e, or 0 for an edgeless graph.
func (g *Graph) MaxCapacity() int {
	c := 0
	for _, e := range g.edges {
		if e.Capacity > c {
			c = e.Capacity
		}
	}
	return c
}

// OutEdges returns the IDs of edges leaving v. The returned slice is owned
// by the graph and must not be modified.
func (g *Graph) OutEdges(v int) []EdgeID {
	if v < 0 || v >= g.n {
		return nil
	}
	return g.out[v]
}

// ErrNoPath is returned by path searches when the target is unreachable.
var ErrNoPath = errors.New("graph: no path")

// walkBack reconstructs a path from the BFS predecessor-edge array.
func (g *Graph) walkBack(s, t int, prevEdge []EdgeID) []EdgeID {
	var rev []EdgeID
	for v := t; v != s; {
		id := prevEdge[v]
		rev = append(rev, id)
		v = g.edges[id].From
	}
	path := make([]EdgeID, len(rev))
	for i := range rev {
		path[i] = rev[len(rev)-1-i]
	}
	return path
}

// RandomSimplePath returns a random simple path from s to t, produced by a
// randomized BFS (the neighbor order is shuffled per vertex), so repeated
// calls explore diverse routes. It returns ErrNoPath if t is unreachable.
func (g *Graph) RandomSimplePath(s, t int, r *rng.RNG) ([]EdgeID, error) {
	if s < 0 || s >= g.n || t < 0 || t >= g.n {
		return nil, fmt.Errorf("graph: path endpoints (%d,%d) outside vertex range", s, t)
	}
	if s == t {
		return nil, nil
	}
	prevEdge := make([]EdgeID, g.n)
	for i := range prevEdge {
		prevEdge[i] = -1
	}
	visited := make([]bool, g.n)
	visited[s] = true
	queue := []int{s}
	scratch := make([]EdgeID, 0, 8)
	for len(queue) > 0 {
		// Random pop keeps the search tree diverse across calls.
		qi := r.Intn(len(queue))
		v := queue[qi]
		queue[qi] = queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		scratch = append(scratch[:0], g.out[v]...)
		r.Shuffle(len(scratch), func(i, j int) { scratch[i], scratch[j] = scratch[j], scratch[i] })
		for _, id := range scratch {
			w := g.edges[id].To
			if visited[w] {
				continue
			}
			visited[w] = true
			prevEdge[w] = id
			if w == t {
				return g.walkBack(s, t, prevEdge), nil
			}
			queue = append(queue, w)
		}
	}
	return nil, ErrNoPath
}

// IsSimplePath reports whether ids form a contiguous directed path visiting
// no vertex twice. The empty path is simple.
func (g *Graph) IsSimplePath(ids []EdgeID) bool {
	if len(ids) == 0 {
		return true
	}
	seen := map[int]bool{}
	for i, id := range ids {
		if id < 0 || int(id) >= len(g.edges) {
			return false
		}
		e := g.edges[id]
		if i == 0 {
			seen[e.From] = true
		} else if g.edges[ids[i-1]].To != e.From {
			return false
		}
		if seen[e.To] {
			return false
		}
		seen[e.To] = true
	}
	return true
}

// Validate checks structural invariants and returns a descriptive error for
// the first violation found.
func (g *Graph) Validate() error {
	for i, e := range g.edges {
		if e.From < 0 || e.From >= g.n || e.To < 0 || e.To >= g.n {
			return fmt.Errorf("graph: edge %d endpoints (%d,%d) out of range", i, e.From, e.To)
		}
		if e.Capacity <= 0 {
			return fmt.Errorf("graph: edge %d has capacity %d", i, e.Capacity)
		}
	}
	return nil
}
