// Package workload generates the admission-control request sequences the
// experiments run on: random routed traffic over the internal/graph
// topologies, targeted overload patterns, guaranteed-feasible sequences, and
// the adaptive adversaries behind the preemption-necessity experiment (E10)
// — the "trivial lower bound" constructions the paper's introduction cites
// against non-preemptive algorithms ([10]). The named-workload registry
// (BuildNamed) is shared by acsim, acgen, acserve and acload, so every tool
// agrees on what a workload name means.
//
// Concurrency contract: generators are pure given their *rng.RNG argument
// and inherit its single-goroutine restriction (derive one RNG per task
// with Split for parallel sweeps); an Adversary is a stateful sequential
// game and must be driven from one goroutine.
package workload

import (
	"fmt"
	"math"

	"admission/internal/graph"
	"admission/internal/problem"
	"admission/internal/rng"
)

// CostModel selects how request costs are drawn.
type CostModel uint8

// Cost models.
const (
	// CostUnit assigns every request cost 1 (the unweighted case).
	CostUnit CostModel = iota
	// CostUniform draws integer costs uniformly from [1, 100].
	CostUniform
	// CostPareto draws heavy-tailed integer costs (Pareto(1.2), capped at
	// 10⁴) — a few requests are much more valuable than the rest, the
	// regime where rejection-minimization differs most from greedy.
	CostPareto
)

// String names the cost model as the CLI flags spell it.
func (c CostModel) String() string {
	switch c {
	case CostUnit:
		return "unit"
	case CostUniform:
		return "uniform"
	case CostPareto:
		return "pareto"
	default:
		return fmt.Sprintf("CostModel(%d)", uint8(c))
	}
}

// draw samples one cost.
func (c CostModel) draw(r *rng.RNG) (float64, error) {
	switch c {
	case CostUnit:
		return 1, nil
	case CostUniform:
		return float64(1 + r.Intn(100)), nil
	case CostPareto:
		v := math.Floor(r.Pareto(1, 1.2))
		if v > 1e4 {
			v = 1e4
		}
		if v < 1 {
			v = 1
		}
		return v, nil
	default:
		return 0, fmt.Errorf("workload: unknown cost model %v", c)
	}
}

// RandomTraffic generates n requests on graph g: endpoints drawn uniformly
// (or Zipf(skew) when skew > 0), routed on random simple paths, with costs
// from the model. Unreachable endpoint pairs are redrawn.
func RandomTraffic(g *graph.Graph, n int, model CostModel, skew float64, r *rng.RNG) (*problem.Instance, error) {
	if n < 0 {
		return nil, fmt.Errorf("workload: negative request count")
	}
	if g.N() < 2 || g.M() == 0 {
		return nil, fmt.Errorf("workload: graph too small (%d vertices, %d edges)", g.N(), g.M())
	}
	ins := &problem.Instance{Capacities: g.Capacities()}
	var zipf *rng.Zipfian
	if skew > 0 {
		zipf = rng.NewZipf(r, g.N(), skew)
	}
	pick := func() int {
		if zipf != nil {
			return zipf.Draw()
		}
		return r.Intn(g.N())
	}
	const maxTries = 64
	for len(ins.Requests) < n {
		var path []graph.EdgeID
		ok := false
		for try := 0; try < maxTries; try++ {
			s, t := pick(), pick()
			if s == t {
				continue
			}
			p, err := g.RandomSimplePath(s, t, r)
			if err != nil {
				continue
			}
			path, ok = p, true
			break
		}
		if !ok {
			return nil, fmt.Errorf("workload: could not route a request after %d tries", maxTries)
		}
		cost, err := model.draw(r)
		if err != nil {
			return nil, err
		}
		edges := make([]int, len(path))
		for i, id := range path {
			edges[i] = int(id)
		}
		ins.Requests = append(ins.Requests, problem.Request{Edges: edges, Cost: cost})
	}
	return ins, nil
}

// SingleEdgeOverload returns the minimal stress instance: one edge of the
// given capacity and n single-edge requests. OPT (unweighted) is exactly
// max(0, n−capacity).
func SingleEdgeOverload(capacity, n int, model CostModel, r *rng.RNG) (*problem.Instance, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("workload: capacity %d", capacity)
	}
	if n < 0 {
		return nil, fmt.Errorf("workload: negative request count")
	}
	ins := &problem.Instance{Capacities: []int{capacity}}
	for i := 0; i < n; i++ {
		cost, err := model.draw(r)
		if err != nil {
			return nil, err
		}
		ins.Requests = append(ins.Requests, problem.Request{Edges: []int{0}, Cost: cost})
	}
	return ins, nil
}

// BlockOverload builds k independent single-edge hotspots (disjoint edges),
// each of the given capacity receiving perBlock requests, interleaved
// round-robin. The rejection problem decomposes per block, which exercises
// the LP decomposition fast path and models disjoint congested links.
func BlockOverload(k, capacity, perBlock int, model CostModel, r *rng.RNG) (*problem.Instance, error) {
	if k <= 0 || capacity <= 0 || perBlock < 0 {
		return nil, fmt.Errorf("workload: BlockOverload(k=%d, capacity=%d, perBlock=%d)", k, capacity, perBlock)
	}
	caps := make([]int, k)
	for e := range caps {
		caps[e] = capacity
	}
	ins := &problem.Instance{Capacities: caps}
	for round := 0; round < perBlock; round++ {
		for e := 0; e < k; e++ {
			cost, err := model.draw(r)
			if err != nil {
				return nil, err
			}
			ins.Requests = append(ins.Requests, problem.Request{Edges: []int{e}, Cost: cost})
		}
	}
	return ins, nil
}

// Feasible generates a request sequence that fits entirely within the
// graph's capacities (OPT = 0): each candidate path is added only if every
// edge still has a free slot. Used by the zero-rejection experiment (E7).
func Feasible(g *graph.Graph, n int, model CostModel, r *rng.RNG) (*problem.Instance, error) {
	if n < 0 {
		return nil, fmt.Errorf("workload: negative request count")
	}
	if g.N() < 2 || g.M() == 0 {
		return nil, fmt.Errorf("workload: graph too small")
	}
	ins := &problem.Instance{Capacities: g.Capacities()}
	load := make([]int, g.M())
	caps := g.Capacities()
	const maxTries = 256
	tries := 0
	for len(ins.Requests) < n && tries < maxTries*n+maxTries {
		tries++
		s, t := r.Intn(g.N()), r.Intn(g.N())
		if s == t {
			continue
		}
		path, err := g.RandomSimplePath(s, t, r)
		if err != nil {
			continue
		}
		fits := true
		for _, id := range path {
			if load[id]+1 > caps[id] {
				fits = false
				break
			}
		}
		if !fits {
			continue
		}
		edges := make([]int, len(path))
		for i, id := range path {
			load[id]++
			edges[i] = int(id)
		}
		cost, err := model.draw(r)
		if err != nil {
			return nil, err
		}
		ins.Requests = append(ins.Requests, problem.Request{Edges: edges, Cost: cost})
	}
	// Fewer than n requests is fine — the network saturated; the sequence
	// is feasible by construction either way.
	return ins, nil
}

// OverloadedTraffic generates random traffic sized so that the network is
// oversubscribed by roughly the given factor (> 1): the expected total
// edge-slot demand is factor × the total capacity. It is the standard
// workload of the scaling experiments E1–E3.
func OverloadedTraffic(g *graph.Graph, factor float64, model CostModel, r *rng.RNG) (*problem.Instance, error) {
	if factor <= 0 {
		return nil, fmt.Errorf("workload: overload factor %v", factor)
	}
	totalCap := 0
	for _, c := range g.Capacities() {
		totalCap += c
	}
	// Estimate mean path length with a small sample to size the sequence.
	sample := 16
	totalLen := 0
	for i := 0; i < sample; i++ {
		s, t := r.Intn(g.N()), r.Intn(g.N())
		if s == t {
			t = (t + 1) % g.N()
		}
		p, err := g.RandomSimplePath(s, t, r)
		if err != nil {
			continue
		}
		totalLen += len(p)
	}
	meanLen := float64(totalLen) / float64(sample)
	if meanLen < 1 {
		meanLen = 1
	}
	n := int(math.Ceil(factor * float64(totalCap) / meanLen))
	if n < 1 {
		n = 1
	}
	return RandomTraffic(g, n, model, 0, r)
}
