package main

import (
	"sort"

	"admission/internal/problem"
	"admission/internal/setcover"
)

// packedBound is the lower bound on OPT behind objective_ratio. Both
// objectives are covering programs: constraint g must pick at least
// need[g] of its members (groups[g]), paying cost(member) each. Alone,
// constraint g costs at least b_g, the sum of its need[g] cheapest
// members. Any weights y_g ≥ 0 under which every member's constraints sum
// to at most 1 give OPT ≥ Σ_g y_g·b_g, because a member OPT picks then
// pays for at most one whole b_g's worth of the constraints it is in.
//
// Two weightings are filled greedily, constraints taken by decreasing
// b_g, each raising y_g to the least slack left among its members:
//
//   - from zero, which is packing: constraints that share no member with
//     one taken before add their whole b_g. The first taken is the
//     largest b_g, so the bound is never below the maximum over
//     constraints, and when no two constraints share a member
//     (single-edge requests) it equals OPT;
//   - from y_g = 1/k_g, k_g the most constraints any member of g is in,
//     which spreads the weight over constraints that overlap.
//
// The larger of the two is returned. On the benchmark's inputs for seeds
// 1–5 the spread fill is the larger on three workloads: cover-repeats
// about 2000 sets against 200–400 (and much the steadier from seed to
// seed), routed-mix 7490 against 1230–1590, paths-weighted about 1.15×.
// The packing fill keeps the bound exact on single-edge workloads.
func packedBound(groups [][]int, need []int, cost func(member int) float64) float64 {
	members := 0
	for _, ms := range groups {
		for _, m := range ms {
			members = max(members, m+1)
		}
	}
	var cs []int // constraints with positive need
	b := make([]float64, len(groups))
	within := make([]int, members)
	for g, ms := range groups {
		if need[g] <= 0 {
			continue
		}
		costs := make([]float64, len(ms))
		for i, m := range ms {
			costs[i] = cost(m)
			within[m]++
		}
		sort.Float64s(costs)
		for _, c := range costs[:min(need[g], len(costs))] {
			b[g] += c
		}
		cs = append(cs, g)
	}
	sort.SliceStable(cs, func(i, j int) bool { return b[cs[i]] > b[cs[j]] })

	fill := func(y []float64) float64 {
		load := make([]float64, members)
		for _, g := range cs {
			for _, m := range groups[g] {
				load[m] += y[g]
			}
		}
		var total float64
		for _, g := range cs {
			slack := 1.0
			for _, m := range groups[g] {
				slack = min(slack, 1-load[m])
			}
			if slack > 0 {
				y[g] += slack
				for _, m := range groups[g] {
					load[m] += slack
				}
			}
			total += y[g] * b[g]
		}
		return total
	}
	spread := make([]float64, len(groups))
	for _, g := range cs {
		k := 1
		for _, m := range groups[g] {
			k = max(k, within[m])
		}
		spread[g] = 1 / float64(k)
	}
	return max(fill(make([]float64, len(groups))), fill(spread))
}

// admissionBound bounds the optimal rejected cost: edge e must lose at
// least |REQ_e| − c_e of the requests routed over it.
func admissionBound(ins *problem.Instance) float64 {
	groups := make([][]int, len(ins.Capacities))
	for i, r := range ins.Requests {
		for _, e := range r.Edges {
			groups[e] = append(groups[e], i)
		}
	}
	need := make([]int, len(groups))
	for e, g := range groups {
		need[e] = len(g) - ins.Capacities[e]
	}
	return packedBound(groups, need, func(i int) float64 { return ins.Requests[i].Cost })
}

// coverBound bounds the optimal cover cost: element j, arrived k_j times,
// needs k_j distinct sets containing it.
func coverBound(ins *setcover.Instance, arrivals []int) float64 {
	need := make([]int, ins.N)
	for _, j := range arrivals {
		need[j]++
	}
	return packedBound(ins.SetsOf(), need, ins.Cost)
}

// rejectAllCost is what an engine that rejects every request would pay:
// the objective_ratio it reached, against the same bound, is how far the
// metric can move on an admission workload.
func rejectAllCost(ins *problem.Instance) float64 {
	var total float64
	for _, r := range ins.Requests {
		total += r.Cost
	}
	return total
}

// buyAllCost is what a cover engine that bought every set would pay.
func buyAllCost(ins *setcover.Instance) float64 {
	var total float64
	for s := range ins.Sets {
		total += ins.Cost(s)
	}
	return total
}
