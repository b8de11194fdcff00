// Package trace executes online algorithms over instances while recording
// an event log and enforcing the problem's rules independently of any
// algorithm's internal bookkeeping.
//
// Every experiment and every correctness test funnels through Runner, which
// maintains its own view of edge loads and accepted/rejected sets, and fails
// loudly if an algorithm ever (a) leaves an edge over capacity, (b) preempts
// a request that was never accepted or was already rejected, or (c) reports
// a rejected cost inconsistent with its decisions. This externalized
// verification is what makes the property-based tests trustworthy.
//
// Concurrency contract: a Runner wraps one sequential Algorithm and is
// itself single-goroutine — offer requests from one goroutine in arrival
// order. Distinct Runners over distinct algorithm instances may run
// concurrently (the harness's parallel sweeps do).
package trace

import (
	"fmt"
	"math"

	"admission/internal/problem"
)

// EventKind enumerates log entry types.
type EventKind uint8

// Event kinds.
const (
	EventArrival EventKind = iota
	EventAccept
	EventReject  // rejected on arrival
	EventPreempt // rejected after having been accepted
	EventShrink  // capacity decrement (set-cover reduction phase 2)
)

// String names the event kind as audit reports print it.
func (k EventKind) String() string {
	switch k {
	case EventArrival:
		return "arrival"
	case EventAccept:
		return "accept"
	case EventReject:
		return "reject"
	case EventPreempt:
		return "preempt"
	case EventShrink:
		return "shrink"
	default:
		return fmt.Sprintf("EventKind(%d)", uint8(k))
	}
}

// Event is one entry of the decision log. The JSON form (used by the
// RecordedRun artifact) spells the kind by name.
type Event struct {
	Kind EventKind `json:"kind"`
	// Step is the index of the arrival being processed when the event fired.
	Step int `json:"step"`
	// Request is the affected request ID (or the shrunk edge for EventShrink).
	Request int     `json:"request"`
	Cost    float64 `json:"cost,omitempty"`
}

// Result summarizes one run.
type Result struct {
	// RejectedCost is the objective: total cost of requests rejected on
	// arrival or preempted, as re-derived by the runner.
	RejectedCost float64
	// AlgorithmReported is the algorithm's own RejectedCost() at the end.
	AlgorithmReported float64
	// Accepted holds the IDs of requests still accepted at the end.
	Accepted []int
	// Rejected holds the IDs of all rejected/preempted requests.
	Rejected []int
	// Preemptions counts EventPreempt entries.
	Preemptions int
	// Events is the full log (nil unless Options.Record).
	Events []Event
}

// Options configures a run.
type Options struct {
	// Check enables per-step invariant verification (recommended; the
	// experiment harness disables it only inside timing loops).
	Check bool
	// Record retains the full event log in the result.
	Record bool
	// ReportTolerance bounds |algorithm-reported − runner-derived| rejected
	// cost before Run fails. Zero means an exact-ish default of 1e-6.
	ReportTolerance float64
}

// requestState tracks the runner's independent view of one request.
type requestState uint8

const (
	statePending requestState = iota
	stateAccepted
	stateRejected
)

// Runner executes an algorithm over arrivals, verifying the rules.
// Construct with NewRunner; feed arrivals with Offer (or use Run).
type Runner struct {
	alg   problem.Algorithm
	caps  []int // mutable: shrinks reduce these
	load  []int
	state []requestState
	reqs  []problem.Request
	opts  Options
	res   Result
	step  int
}

// NewRunner prepares a runner for an instance's capacity vector.
func NewRunner(alg problem.Algorithm, capacities []int, opts Options) (*Runner, error) {
	if alg == nil {
		return nil, fmt.Errorf("trace: nil algorithm")
	}
	if len(capacities) == 0 {
		return nil, fmt.Errorf("trace: no edges")
	}
	for e, c := range capacities {
		if c <= 0 {
			return nil, fmt.Errorf("trace: edge %d capacity %d", e, c)
		}
	}
	if opts.ReportTolerance == 0 {
		opts.ReportTolerance = 1e-6
	}
	return &Runner{
		alg:  alg,
		caps: append([]int(nil), capacities...),
		load: make([]int, len(capacities)),
		opts: opts,
	}, nil
}

func (rn *Runner) record(ev Event) {
	if rn.opts.Record {
		rn.res.Events = append(rn.res.Events, ev)
	}
}

// Offer feeds the next arrival to the algorithm and applies its decision to
// the runner's independent state.
func (rn *Runner) Offer(r problem.Request) (problem.Outcome, error) {
	id := len(rn.reqs)
	if rn.opts.Check {
		if err := r.Validate(len(rn.caps)); err != nil {
			return problem.Outcome{}, err
		}
	}
	rn.reqs = append(rn.reqs, r)
	rn.state = append(rn.state, statePending)
	rn.record(Event{Kind: EventArrival, Step: rn.step, Request: id, Cost: r.Cost})

	out, err := rn.alg.Offer(id, r.Clone())
	if err != nil {
		return out, fmt.Errorf("trace: algorithm %q failed at request %d: %w", rn.alg.Name(), id, err)
	}
	if err := rn.apply(id, r, out); err != nil {
		return out, err
	}
	rn.step++
	return out, nil
}

// apply updates the runner's state from an outcome and verifies invariants.
func (rn *Runner) apply(id int, r problem.Request, out problem.Outcome) error {
	for _, p := range out.Preempted {
		if p < 0 || p >= len(rn.state) {
			return fmt.Errorf("trace: %q preempted unknown request %d", rn.alg.Name(), p)
		}
		if p == id {
			return fmt.Errorf("trace: %q preempted the arriving request %d; it should reject it via Accepted=false", rn.alg.Name(), id)
		}
		if rn.state[p] != stateAccepted {
			return fmt.Errorf("trace: %q preempted request %d in state %d", rn.alg.Name(), p, rn.state[p])
		}
		rn.state[p] = stateRejected
		for _, e := range rn.reqs[p].Edges {
			rn.load[e]--
		}
		rn.res.RejectedCost += rn.reqs[p].Cost
		rn.res.Preemptions++
		rn.record(Event{Kind: EventPreempt, Step: rn.step, Request: p, Cost: rn.reqs[p].Cost})
	}
	if out.Accepted {
		rn.state[id] = stateAccepted
		for _, e := range r.Edges {
			rn.load[e]++
		}
		rn.record(Event{Kind: EventAccept, Step: rn.step, Request: id, Cost: r.Cost})
	} else {
		rn.state[id] = stateRejected
		rn.res.RejectedCost += r.Cost
		rn.record(Event{Kind: EventReject, Step: rn.step, Request: id, Cost: r.Cost})
	}
	if rn.opts.Check {
		if err := rn.checkFeasible(); err != nil {
			return err
		}
	}
	return nil
}

// ShrinkCapacity decrements the capacity of edge e by one, forwarding to the
// algorithm's CapacityShrinker implementation. Used by the §4 reduction.
func (rn *Runner) ShrinkCapacity(e int) (problem.Outcome, error) {
	if e < 0 || e >= len(rn.caps) {
		return problem.Outcome{}, fmt.Errorf("trace: shrink of unknown edge %d", e)
	}
	if rn.caps[e] <= 0 {
		return problem.Outcome{}, fmt.Errorf("trace: edge %d capacity already 0", e)
	}
	sh, ok := rn.alg.(problem.CapacityShrinker)
	if !ok {
		return problem.Outcome{}, fmt.Errorf("trace: algorithm %q does not support capacity shrinking", rn.alg.Name())
	}
	out, err := sh.ShrinkCapacity(e)
	if err != nil {
		return out, fmt.Errorf("trace: %q shrink(%d): %w", rn.alg.Name(), e, err)
	}
	rn.caps[e]--
	rn.record(Event{Kind: EventShrink, Step: rn.step, Request: e})
	if out.Accepted {
		return out, fmt.Errorf("trace: shrink outcome cannot accept")
	}
	// Apply only the preemptions; there is no arriving request.
	for _, p := range out.Preempted {
		if p < 0 || p >= len(rn.state) || rn.state[p] != stateAccepted {
			return out, fmt.Errorf("trace: %q shrink preempted invalid request %d", rn.alg.Name(), p)
		}
		rn.state[p] = stateRejected
		for _, ee := range rn.reqs[p].Edges {
			rn.load[ee]--
		}
		rn.res.RejectedCost += rn.reqs[p].Cost
		rn.res.Preemptions++
		rn.record(Event{Kind: EventPreempt, Step: rn.step, Request: p, Cost: rn.reqs[p].Cost})
	}
	rn.step++
	if rn.opts.Check {
		if err := rn.checkFeasible(); err != nil {
			return out, err
		}
	}
	return out, nil
}

// checkFeasible verifies every edge load is within (current) capacity.
func (rn *Runner) checkFeasible() error {
	for e, l := range rn.load {
		if l > rn.caps[e] {
			return fmt.Errorf("trace: %q left edge %d at load %d > capacity %d", rn.alg.Name(), e, l, rn.caps[e])
		}
	}
	return nil
}

// Loads returns a copy of the current per-edge loads.
func (rn *Runner) Loads() []int { return append([]int(nil), rn.load...) }

// Finish validates the final report and returns the result.
func (rn *Runner) Finish() (*Result, error) {
	rn.res.AlgorithmReported = rn.alg.RejectedCost()
	if rn.opts.Check {
		if diff := math.Abs(rn.res.AlgorithmReported - rn.res.RejectedCost); diff > rn.opts.ReportTolerance {
			return nil, fmt.Errorf("trace: %q reports rejected cost %v, runner derived %v (diff %v)",
				rn.alg.Name(), rn.res.AlgorithmReported, rn.res.RejectedCost, diff)
		}
	}
	for id, st := range rn.state {
		switch st {
		case stateAccepted:
			rn.res.Accepted = append(rn.res.Accepted, id)
		case stateRejected:
			rn.res.Rejected = append(rn.res.Rejected, id)
		}
	}
	out := rn.res
	return &out, nil
}

// Run executes the algorithm over the full instance and returns the result.
func Run(alg problem.Algorithm, ins *problem.Instance, opts Options) (*Result, error) {
	if opts.Check {
		if err := ins.Validate(); err != nil {
			return nil, err
		}
	}
	rn, err := NewRunner(alg, ins.Capacities, opts)
	if err != nil {
		return nil, err
	}
	for _, r := range ins.Requests {
		if _, err := rn.Offer(r); err != nil {
			return nil, err
		}
	}
	return rn.Finish()
}
