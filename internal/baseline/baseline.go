// Package baseline implements the comparison algorithms the paper's
// experiments are measured against.
//
// Blum, Kalai and Kleinberg (WADS 2001) — the work whose open question this
// paper settles — gave two deterministic algorithms for admission control to
// minimize rejections: a (c+1)-competitive one and an O(√m)-competitive one.
// The (c+1)-competitive algorithm is the natural non-preemptive greedy
// (accept whenever feasible), implemented here exactly. The O(√m) algorithm
// is not reproduced in the paper's text; as deterministic preemptive
// baselines we provide victim-selection heuristics (cheapest/newest/random)
// and a deterministic threshold rounding of the paper's own §2 fractional
// solution — see DESIGN.md §3's substitution notes.
//
// Concurrency contract: like the §2/§3 algorithms in internal/core, every
// baseline is a sequential online algorithm — one Offer at a time from a
// single goroutine; run independent instances for parallel sweeps.
package baseline

import (
	"fmt"
	"sort"

	"admission/internal/core"
	"admission/internal/problem"
	"admission/internal/rng"
)

// Greedy is the non-preemptive accept-if-feasible algorithm: BKK's
// (c+1)-competitive baseline for the unweighted case. It also exhibits the
// trivial lower bound that motivates preemption (experiment E10): a single
// adaptive adversary forces an unbounded ratio in the weighted case.
type Greedy struct {
	caps         []int
	load         []int
	rejectedCost float64
}

var _ problem.Algorithm = (*Greedy)(nil)

// NewGreedy creates the greedy baseline.
func NewGreedy(capacities []int) (*Greedy, error) {
	if err := checkCaps(capacities); err != nil {
		return nil, err
	}
	return &Greedy{
		caps: append([]int(nil), capacities...),
		load: make([]int, len(capacities)),
	}, nil
}

// Name implements problem.Algorithm.
func (g *Greedy) Name() string { return "greedy" }

// RejectedCost implements problem.Algorithm.
func (g *Greedy) RejectedCost() float64 { return g.rejectedCost }

// Offer implements problem.Algorithm: accept iff every edge has a free slot.
func (g *Greedy) Offer(id int, r problem.Request) (problem.Outcome, error) {
	if err := r.Validate(len(g.caps)); err != nil {
		return problem.Outcome{}, err
	}
	for _, e := range r.Edges {
		if g.load[e]+1 > g.caps[e] {
			g.rejectedCost += r.Cost
			return problem.Outcome{}, nil
		}
	}
	for _, e := range r.Edges {
		g.load[e]++
	}
	return problem.Outcome{Accepted: true}, nil
}

// ShrinkCapacity implements problem.CapacityShrinker for the reduction
// experiments: greedy preempts arbitrary (oldest-first) requests to repair.
func (g *Greedy) ShrinkCapacity(e int) (problem.Outcome, error) {
	if e < 0 || e >= len(g.caps) {
		return problem.Outcome{}, fmt.Errorf("baseline: shrink of unknown edge %d", e)
	}
	if g.caps[e] <= 0 {
		return problem.Outcome{}, fmt.Errorf("baseline: edge %d capacity exhausted", e)
	}
	g.caps[e]--
	// Greedy has no per-request bookkeeping beyond loads; it cannot repair.
	// Feasibility after a shrink requires load <= cap, so Greedy is only
	// usable with shrinks when slack remains.
	if g.load[e] > g.caps[e] {
		return problem.Outcome{}, fmt.Errorf("baseline: greedy cannot repair shrink on saturated edge %d", e)
	}
	return problem.Outcome{}, nil
}

// VictimPolicy selects which accepted request to preempt when an arrival
// does not fit.
type VictimPolicy uint8

// Victim policies for Preemptive.
const (
	// VictimCheapest preempts the lowest-cost accepted request on the
	// saturated edge (ties: oldest). Greedy-exchange heuristic: sacrifices
	// the least value to admit the newcomer.
	VictimCheapest VictimPolicy = iota
	// VictimNewest preempts the most recently accepted request.
	VictimNewest
	// VictimOldest preempts the least recently accepted request.
	VictimOldest
	// VictimRandom preempts a uniformly random accepted request.
	VictimRandom
)

// String names the policy as the experiment tables print it.
func (p VictimPolicy) String() string {
	switch p {
	case VictimCheapest:
		return "cheapest"
	case VictimNewest:
		return "newest"
	case VictimOldest:
		return "oldest"
	case VictimRandom:
		return "random"
	default:
		return fmt.Sprintf("VictimPolicy(%d)", uint8(p))
	}
}

// Preemptive accepts every arrival whose cost exceeds the victims it must
// displace (cheapest policy) or unconditionally (other policies), preempting
// per the policy until feasible. It is a family of natural baselines that
// the paper's randomized algorithm is compared against in E6.
type Preemptive struct {
	policy       VictimPolicy
	caps         []int
	load         []int
	rand         *rng.RNG
	accepted     map[int]problem.Request
	order        []int // accepted ids in acceptance order (with holes)
	rejectedCost float64
}

var _ problem.Algorithm = (*Preemptive)(nil)

// NewPreemptive creates a preemptive baseline with the given victim policy.
func NewPreemptive(capacities []int, policy VictimPolicy, seed uint64) (*Preemptive, error) {
	if err := checkCaps(capacities); err != nil {
		return nil, err
	}
	if policy > VictimRandom {
		return nil, fmt.Errorf("baseline: unknown victim policy %v", policy)
	}
	return &Preemptive{
		policy:   policy,
		caps:     append([]int(nil), capacities...),
		load:     make([]int, len(capacities)),
		rand:     rng.New(seed),
		accepted: map[int]problem.Request{},
	}, nil
}

// Name implements problem.Algorithm.
func (p *Preemptive) Name() string { return "preempt-" + p.policy.String() }

// RejectedCost implements problem.Algorithm.
func (p *Preemptive) RejectedCost() float64 { return p.rejectedCost }

// Offer implements problem.Algorithm.
func (p *Preemptive) Offer(id int, r problem.Request) (problem.Outcome, error) {
	if err := r.Validate(len(p.caps)); err != nil {
		return problem.Outcome{}, err
	}
	var out problem.Outcome
	// Tentatively admit, then evict victims from saturated edges. For the
	// cheapest policy, give up (reject the arrival) if a victim would cost
	// more than the arrival itself — displacing value-for-less only churns.
	victims := map[int]bool{}
	for _, e := range r.Edges {
		for p.loadWith(e, victims)+1 > p.caps[e] {
			v, ok := p.pickVictim(e, victims)
			if !ok {
				p.rejectedCost += r.Cost
				return problem.Outcome{}, nil
			}
			if p.policy == VictimCheapest && p.accepted[v].Cost > r.Cost {
				p.rejectedCost += r.Cost
				return problem.Outcome{}, nil
			}
			victims[v] = true
		}
	}
	for v := range victims {
		p.evict(v, &out)
	}
	sort.Ints(out.Preempted)
	p.accepted[id] = r.Clone()
	p.order = append(p.order, id)
	for _, e := range r.Edges {
		p.load[e]++
	}
	out.Accepted = true
	return out, nil
}

// loadWith returns edge e's load excluding pending victims.
func (p *Preemptive) loadWith(e int, victims map[int]bool) int {
	l := p.load[e]
	for v := range victims {
		for _, ee := range p.accepted[v].Edges {
			if ee == e {
				l--
				break
			}
		}
	}
	return l
}

// pickVictim chooses an accepted request on edge e (not already marked).
func (p *Preemptive) pickVictim(e int, excluded map[int]bool) (int, bool) {
	var candidates []int
	for _, id := range p.order {
		r, ok := p.accepted[id]
		if !ok || excluded[id] {
			continue
		}
		for _, ee := range r.Edges {
			if ee == e {
				candidates = append(candidates, id)
				break
			}
		}
	}
	if len(candidates) == 0 {
		return 0, false
	}
	switch p.policy {
	case VictimCheapest:
		best := candidates[0]
		for _, id := range candidates[1:] {
			if p.accepted[id].Cost < p.accepted[best].Cost {
				best = id
			}
		}
		return best, true
	case VictimNewest:
		return candidates[len(candidates)-1], true
	case VictimOldest:
		return candidates[0], true
	default: // VictimRandom
		return candidates[p.rand.Intn(len(candidates))], true
	}
}

// evict preempts request id.
func (p *Preemptive) evict(id int, out *problem.Outcome) {
	r := p.accepted[id]
	delete(p.accepted, id)
	for _, e := range r.Edges {
		p.load[e]--
	}
	p.rejectedCost += r.Cost
	out.Preempted = append(out.Preempted, id)
}

// ShrinkCapacity implements problem.CapacityShrinker.
func (p *Preemptive) ShrinkCapacity(e int) (problem.Outcome, error) {
	if e < 0 || e >= len(p.caps) {
		return problem.Outcome{}, fmt.Errorf("baseline: shrink of unknown edge %d", e)
	}
	if p.caps[e] <= 0 {
		return problem.Outcome{}, fmt.Errorf("baseline: edge %d capacity exhausted", e)
	}
	p.caps[e]--
	var out problem.Outcome
	for p.load[e] > p.caps[e] {
		v, ok := p.pickVictim(e, map[int]bool{})
		if !ok {
			return out, fmt.Errorf("baseline: shrink repair failed on edge %d", e)
		}
		p.evict(v, &out)
	}
	return out, nil
}

// DetThreshold is a deterministic rounding of the paper's §2 fractional
// solution: it preempts a request once its fractional weight reaches the
// configured threshold (default ½) and otherwise behaves like step 4 of the
// randomized algorithm. It stands in for a deterministic preemptive
// comparator (see DESIGN.md substitution 2) and is the natural
// derandomization attempt the paper's concluding remarks call an open
// problem — E6 shows where it loses to the randomized algorithm.
type DetThreshold struct {
	frac      *core.Fractional
	threshold float64
	caps      []int
	load      []int

	state        map[int]problem.Request // accepted requests
	rejectedCost float64
}

var _ problem.Algorithm = (*DetThreshold)(nil)

// NewDetThreshold creates the deterministic rounding baseline. threshold
// must be in (0, 1]; weights at or above it are preempted.
func NewDetThreshold(capacities []int, cfg core.Config, threshold float64) (*DetThreshold, error) {
	if threshold <= 0 || threshold > 1 {
		return nil, fmt.Errorf("baseline: threshold %v outside (0,1]", threshold)
	}
	frac, err := core.NewFractional(capacities, cfg)
	if err != nil {
		return nil, err
	}
	return &DetThreshold{
		frac:      frac,
		threshold: threshold,
		caps:      append([]int(nil), capacities...),
		load:      make([]int, len(capacities)),
		state:     map[int]problem.Request{},
	}, nil
}

// Name implements problem.Algorithm.
func (d *DetThreshold) Name() string { return "det-threshold" }

// RejectedCost implements problem.Algorithm.
func (d *DetThreshold) RejectedCost() float64 { return d.rejectedCost }

// Offer implements problem.Algorithm.
func (d *DetThreshold) Offer(id int, r problem.Request) (problem.Outcome, error) {
	if err := r.Validate(len(d.caps)); err != nil {
		return problem.Outcome{}, err
	}
	var out problem.Outcome
	cs, err := d.frac.Offer(r)
	if err != nil {
		return out, err
	}
	if cs.PrunedRejected {
		d.rejectedCost += r.Cost
		return out, nil
	}
	arrivalKilled := false
	permAccepted := cs.PermAccepted
	if permAccepted {
		d.state[id] = r.Clone()
		for _, e := range r.Edges {
			d.load[e]++
		}
		out.Accepted = true
	}
	for _, ch := range cs.Changes {
		if d.frac.Weight(ch.ID) < d.threshold {
			continue
		}
		if ch.ID == id {
			arrivalKilled = true
			continue
		}
		if req, ok := d.state[ch.ID]; ok {
			delete(d.state, ch.ID)
			for _, e := range req.Edges {
				d.load[e]--
			}
			d.rejectedCost += req.Cost
			out.Preempted = append(out.Preempted, ch.ID)
		}
	}
	if permAccepted {
		// A permanent accept consumes a slot like a shrink would; if the
		// threshold preemptions above did not free enough room, evict the
		// heaviest-weight ordinary request on each saturated edge.
		for _, e := range r.Edges {
			for d.load[e] > d.caps[e] {
				victim := -1
				bestW := -1.0
				for vid, req := range d.state {
					if vid == id {
						continue // never evict the permanent accept itself
					}
					if _, _, perm, _ := d.frac.Status(vid); perm {
						continue
					}
					uses := false
					for _, ee := range req.Edges {
						if ee == e {
							uses = true
							break
						}
					}
					if !uses {
						continue
					}
					if w := d.frac.Weight(vid); w > bestW || (w == bestW && vid > victim) {
						bestW = w
						victim = vid
					}
				}
				if victim < 0 {
					return out, fmt.Errorf("baseline: det-threshold cannot repair edge %d", e)
				}
				req := d.state[victim]
				delete(d.state, victim)
				for _, ee := range req.Edges {
					d.load[ee]--
				}
				d.rejectedCost += req.Cost
				out.Preempted = append(out.Preempted, victim)
			}
		}
		return out, nil
	}
	if !arrivalKilled {
		fits := true
		for _, e := range r.Edges {
			// load counts permanently accepted requests too, so the check
			// is against the original capacities.
			if d.load[e]+1 > d.caps[e] {
				fits = false
				break
			}
		}
		if fits {
			d.state[id] = r.Clone()
			for _, e := range r.Edges {
				d.load[e]++
			}
			out.Accepted = true
			return out, nil
		}
	}
	d.rejectedCost += r.Cost
	return out, nil
}

func checkCaps(capacities []int) error {
	if len(capacities) == 0 {
		return fmt.Errorf("baseline: no edges")
	}
	for e, c := range capacities {
		if c <= 0 {
			return fmt.Errorf("baseline: edge %d capacity %d", e, c)
		}
	}
	return nil
}
