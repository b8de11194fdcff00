package coverengine

import (
	"fmt"

	"admission/internal/core"
	"admission/internal/problem"
	"admission/internal/service"
	"admission/internal/setcover"
)

// opKind enumerates shard operations.
type opKind uint8

const (
	// opArrive serves one element arrival on the shard's local algorithm.
	opArrive opKind = iota
	// opStats asks for a state snapshot.
	opStats
)

// op is one message into a shard's queue. elem is a local element index.
type op struct {
	kind opKind
	elem int
}

// reply is a shard's answer to one op.
type reply struct {
	arrival     int   // k: the element's arrival count after this op
	newSets     []int // global set ids newly bought locally, purchase order
	preemptions int   // preemption events fired by this arrival (reduction)
	err         error
	stats       shardSnapshot
}

// shardSnapshot is a consistent view of one shard's accounting.
type shardSnapshot struct {
	arrivals      int
	preemptions   int
	augmentations int
	// countDigest hashes the per-element arrival counts, feeding the
	// engine's StateDigest without copying the whole vector per snapshot.
	countDigest uint64
}

// shard owns one element partition and a full local instance of the online
// algorithm over the set system restricted to its elements. After
// construction all fields are touched only by the shard's event loop
// (service.Shards), through handle.
type shard struct {
	idx int

	// setGlobal maps local set ids (portions) to global set ids.
	setGlobal []int
	// deg is each local element's degree (number of sets containing it —
	// identical locally and globally, since every set containing the
	// element contributes a portion here).
	deg   []int
	count []int // arrivals per local element

	// Exactly one of alg (ModeReduction) and bic (ModeBicriteria) is set;
	// bic may additionally be nil when the shard's elements lie in no set
	// (every arrival then fails before touching it).
	alg *core.Randomized
	bic *setcover.Bicriteria

	arrivals    int
	preemptions int

	// initialChosen lists global set ids bought during setup (phase-1
	// rejections of the §4 reduction). Read once by New before the loop
	// starts.
	initialChosen []int
}

// newShard builds the shard's restricted sub-instance and runs its setup
// phase. part lists the shard's global element ids; byElem is the global
// element→sets index.
func newShard(si int, ins *setcover.Instance, byElem [][]int, part []int, cfg Config) (*shard, error) {
	s := &shard{
		idx:   si,
		deg:   make([]int, len(part)),
		count: make([]int, len(part)),
	}
	// Portions: for each global set, the local indices of its elements
	// owned by this shard.
	portion := make(map[int][]int)
	for li, ge := range part {
		s.deg[li] = len(byElem[ge])
		for _, setID := range byElem[ge] {
			portion[setID] = append(portion[setID], li)
		}
	}
	// Local sets in ascending global id order, so the one-shard engine
	// offers phase-1 requests in exactly the sequential reduction's order.
	for setID := 0; setID < ins.M(); setID++ {
		if len(portion[setID]) > 0 {
			s.setGlobal = append(s.setGlobal, setID)
		}
	}

	switch cfg.Mode {
	case ModeReduction:
		// The sequential runner's derivation, re-seeded per shard; sharing
		// it is what keeps the one-shard engine decision-identical to
		// ReductionRunner if the defaults ever change.
		ccfg := setcover.CoreConfigFor(ins, setcover.ReductionConfig{Core: cfg.Core, Seed: cfg.Seed})
		ccfg.Seed = service.ShardSeed(ccfg.Seed, si)
		caps := make([]int, len(part))
		for li, d := range s.deg {
			caps[li] = d
			if caps[li] == 0 {
				// Positive capacities are required; a degree-0 element
				// refuses arrivals before the algorithm is consulted.
				caps[li] = 1
			}
		}
		alg, err := core.NewRandomized(caps, ccfg)
		if err != nil {
			return nil, err
		}
		s.alg = alg
		// Phase 1: one request per portion. Rejections (and preemptions of
		// earlier portions) are bought immediately.
		for ls, setID := range s.setGlobal {
			out, err := alg.Offer(ls, problem.Request{Edges: portion[setID], Cost: ins.Cost(setID)})
			if err != nil {
				return nil, fmt.Errorf("phase 1 set %d: %w", setID, err)
			}
			if !out.Accepted {
				s.initialChosen = append(s.initialChosen, setID)
			}
			for _, id := range out.Preempted {
				s.initialChosen = append(s.initialChosen, s.setGlobal[id])
			}
		}
	case ModeBicriteria:
		if len(s.setGlobal) == 0 {
			// No set touches this shard's elements; every arrival will be
			// refused (degree 0), so there is nothing to run.
			break
		}
		sub := &setcover.Instance{N: len(part), Sets: make([][]int, len(s.setGlobal))}
		if ins.Costs != nil {
			sub.Costs = make([]float64, len(s.setGlobal))
		}
		for ls, setID := range s.setGlobal {
			sub.Sets[ls] = portion[setID]
			if sub.Costs != nil {
				sub.Costs[ls] = ins.Costs[setID]
			}
		}
		bic, err := setcover.NewBicriteria(sub, cfg.eps())
		if err != nil {
			return nil, err
		}
		s.bic = bic
	default:
		return nil, fmt.Errorf("unknown mode %v", cfg.Mode)
	}
	return s, nil
}

// handle decides one operation.
func (s *shard) handle(o op) reply {
	switch o.kind {
	case opArrive:
		return s.arrive(o)
	case opStats:
		return reply{stats: s.snapshot()}
	default:
		return reply{err: fmt.Errorf("coverengine: shard %d: unknown op %d", s.idx, o.kind)}
	}
}

// arrive serves one element arrival: guard the degree budget, advance the
// local algorithm, and report the newly bought global sets.
func (s *shard) arrive(o op) reply {
	le := o.elem
	if s.deg[le] == 0 {
		return reply{err: fmt.Errorf("coverengine: element is in no set; it can never be covered")}
	}
	if s.count[le] >= s.deg[le] {
		return reply{err: fmt.Errorf("coverengine: %w", setcover.ErrElementSaturated)}
	}
	var rep reply
	switch {
	case s.alg != nil:
		out, err := s.alg.ShrinkCapacity(le)
		if err != nil {
			return reply{err: fmt.Errorf("coverengine: shard %d: %w", s.idx, err)}
		}
		rep.preemptions = len(out.Preempted)
		s.preemptions += len(out.Preempted)
		for _, id := range out.Preempted {
			rep.newSets = append(rep.newSets, s.setGlobal[id])
		}
	case s.bic != nil:
		added, err := s.bic.Arrive(le)
		if err != nil {
			return reply{err: fmt.Errorf("coverengine: shard %d: %w", s.idx, err)}
		}
		for _, id := range added {
			rep.newSets = append(rep.newSets, s.setGlobal[id])
		}
	default:
		return reply{err: fmt.Errorf("coverengine: shard %d has no algorithm", s.idx)}
	}
	s.count[le]++
	s.arrivals++
	rep.arrival = s.count[le]
	return rep
}

// snapshot captures the shard's accounting.
func (s *shard) snapshot() shardSnapshot {
	snap := shardSnapshot{arrivals: s.arrivals, preemptions: s.preemptions}
	if s.bic != nil {
		snap.augmentations = s.bic.Augmentations()
	}
	h := service.NewHash()
	for _, c := range s.count {
		h.Int(c)
	}
	snap.countDigest = h.Sum()
	return snap
}
