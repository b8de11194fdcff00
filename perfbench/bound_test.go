package main

import (
	"testing"

	"admission/internal/opt"
	"admission/internal/problem"
	"admission/internal/rng"
	"admission/internal/setcover"
)

// randomAdmission draws a small instance; with single set, every request
// is one edge.
func randomAdmission(seed uint64, single bool) *problem.Instance {
	r := rng.New(seed)
	m := 2 + r.Intn(4)
	ins := &problem.Instance{Capacities: make([]int, m)}
	for e := range ins.Capacities {
		ins.Capacities[e] = 1 + r.Intn(2)
	}
	n := 6 + r.Intn(8)
	for i := 0; i < n; i++ {
		k := 1
		if !single {
			k = 1 + r.Intn(min(3, m))
		}
		edges := r.Perm(m)[:k]
		ins.Requests = append(ins.Requests, problem.Request{Edges: edges, Cost: 0.5 + 9*r.Float64()})
	}
	return ins
}

// maxEdgeBound is the largest single-edge bound: the summed cheapest
// |REQ_e| − c_e costs on one edge.
func maxEdgeBound(ins *problem.Instance) float64 {
	var best float64
	for e := range ins.Capacities {
		single := &problem.Instance{Capacities: []int{ins.Capacities[e]}}
		for _, r := range ins.Requests {
			for _, f := range r.Edges {
				if f == e {
					single.Requests = append(single.Requests, problem.Request{Edges: []int{0}, Cost: r.Cost})
				}
			}
		}
		best = max(best, admissionBound(single))
	}
	return best
}

func TestAdmissionBoundNeverExceedsExactOPT(t *testing.T) {
	for seed := uint64(1); seed <= 60; seed++ {
		single := seed%3 == 0
		ins := randomAdmission(seed, single)
		res, err := opt.ExactOPT(ins, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Proven {
			t.Fatalf("seed %d: exact search did not finish", seed)
		}
		lb := admissionBound(ins)
		if lb > res.Value+1e-9 {
			t.Errorf("seed %d: bound %v exceeds OPT %v", seed, lb, res.Value)
		}
		if mx := maxEdgeBound(ins); lb < mx-1e-9 {
			t.Errorf("seed %d: bound %v below the best single-edge bound %v", seed, lb, mx)
		}
		if single && !near(lb, res.Value) {
			t.Errorf("seed %d: single-edge instance: bound %v, OPT %v", seed, lb, res.Value)
		}
	}
}

func TestCoverBoundNeverExceedsExactOPT(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		r := rng.New(seed)
		ins, err := setcover.RandomInstance(4+r.Intn(4), 5+r.Intn(5), 0.35, 2, seed%2 == 1, r)
		if err != nil {
			t.Fatal(err)
		}
		arrivals, err := setcover.RandomArrivals(ins, 4+r.Intn(6), 1.0, r)
		if err != nil {
			t.Fatal(err)
		}
		res, err := opt.Exact(ins.Covering(arrivals), 0)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Proven {
			t.Fatalf("seed %d: exact search did not finish", seed)
		}
		lb := coverBound(ins, arrivals)
		if lb > res.Value+1e-9 {
			t.Errorf("seed %d: bound %v exceeds OPT %v", seed, lb, res.Value)
		}
		// The best single element: its k_j cheapest distinct sets.
		var mx float64
		for j := 0; j < ins.N; j++ {
			var own []int
			for _, a := range arrivals {
				if a == j {
					own = append(own, a)
				}
			}
			mx = max(mx, coverBound(ins, own))
		}
		if lb < mx-1e-9 {
			t.Errorf("seed %d: bound %v below the best single-element bound %v", seed, lb, mx)
		}
	}
}

// TestCoverBoundExactOnDisjointSets: when no set holds two elements, the
// elements' demands share no sets and the bound is the optimum.
func TestCoverBoundExactOnDisjointSets(t *testing.T) {
	ins := &setcover.Instance{N: 2, Sets: [][]int{{0}, {0}, {0}, {1}, {1}}, Costs: []float64{3, 1, 2, 5, 4}}
	arrivals := []int{0, 1, 0, 1}
	res, err := opt.Exact(ins.Covering(arrivals), 0)
	if err != nil {
		t.Fatal(err)
	}
	if lb := coverBound(ins, arrivals); !near(lb, res.Value) || !near(lb, 1+2+4+5) {
		t.Fatalf("bound %v, OPT %v, want 12", lb, res.Value)
	}
}
