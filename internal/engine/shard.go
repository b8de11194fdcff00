package engine

import (
	"fmt"

	"admission/internal/core"
	"admission/internal/problem"
)

// opKind enumerates shard operations.
type opKind uint8

const (
	// opOffer runs the shard's §3 instance on a single-shard request.
	opOffer opKind = iota
	// opReserve tentatively consumes one capacity unit per listed edge
	// (two-phase cross-shard, phase 1). Granted only if every edge has a
	// free integral slot.
	opReserve
	// opRelease undoes a granted reservation (two-phase abort).
	opRelease
	// opCommit makes a granted reservation permanent (cluster two-phase
	// keep): the reserved unit moves to the committed ledger, out of
	// release's reach.
	opCommit
	// opStats asks for a state snapshot.
	opStats
	// opGrow raises the capacity of the listed edges by op.units each (the
	// admin control plane's scale-up). Serialized through the event loop
	// like every other op, so it lands at a well-defined point of the
	// shard's decision stream and never races an offer.
	opGrow
	// opShrink removes up to op.units capacity units from each listed edge
	// with the §4 drain semantics: accepted requests are preempted in
	// decreasing fractional-weight order until the integral solution fits
	// the reduced capacity. Units that cannot be shrunk (capacity already
	// exhausted, or fractional capacity consumed by permanent accepts) are
	// skipped and reported via the applied count.
	opShrink
)

// op is one message into a shard's queue. edges are local indices.
type op struct {
	kind     opKind
	globalID int
	edges    []int
	units    int // opGrow/opShrink: capacity units per listed edge
	cost     float64
}

// reply is a shard's answer to one op.
type reply struct {
	ok        bool
	applied   int   // opGrow/opShrink: capacity units actually applied
	preempted []int // global request IDs
	err       error
	stats     shardSnapshot
}

// shardSnapshot is a consistent view of one shard's accounting.
type shardSnapshot struct {
	requests     int
	rejectedCost float64
	preemptions  int
	loads        []int // per local edge: algorithm load + reservations
	caps         []int // per local edge: effective capacity + reservations
}

// shard owns one edge partition. All fields are touched only by the shard's
// event loop (service.Shards), through handle.
type shard struct {
	idx int

	alg       *core.Randomized
	reserved  []int // per local edge: granted cross-shard reservations
	committed []int // per local edge: committed (permanent) reservations
	reqGlobal []int // local request ID -> global request ID
}

// handle decides one operation.
func (s *shard) handle(o op) reply {
	switch o.kind {
	case opOffer:
		return s.offer(o)
	case opReserve:
		return s.reserve(o)
	case opRelease:
		return s.release(o)
	case opCommit:
		return s.commit(o)
	case opStats:
		return reply{stats: s.snapshot()}
	case opGrow:
		return s.grow(o)
	case opShrink:
		return s.shrink(o)
	default:
		return reply{err: fmt.Errorf("engine: shard %d: unknown op %d", s.idx, o.kind)}
	}
}

// offer runs the local §3 instance on a fully-local request.
func (s *shard) offer(o op) reply {
	lid := len(s.reqGlobal)
	s.reqGlobal = append(s.reqGlobal, o.globalID)
	out, err := s.alg.Offer(lid, problem.Request{Edges: o.edges, Cost: o.cost})
	if err != nil {
		return reply{err: fmt.Errorf("engine: shard %d: %w", s.idx, err)}
	}
	return reply{ok: out.Accepted, preempted: s.toGlobal(out.Preempted)}
}

// reserve grants a cross-shard reservation iff every listed edge has a free
// integral slot, consuming one capacity unit per edge via the §4 shrink. The
// shrink's weight augmentations may preempt local requests probabilistically
// (reported in the reply); its deterministic feasibility repair never fires
// because a free slot was verified first and preemptions only free load.
func (s *shard) reserve(o op) reply {
	for _, le := range o.edges {
		// A free integral slot is not sufficient: the fractional layer's
		// adjusted capacity (consumed by §2 permanent accepts) must also
		// have a unit left, or the shrink below would fail. Both conditions
		// are stable for the rest of this op — only this shard's own
		// offers/shrinks move them.
		if s.alg.FreeCapacity(le) <= 0 || !s.alg.CanShrink(le) {
			return reply{ok: false}
		}
	}
	var preempted []int
	for i, le := range o.edges {
		out, err := s.alg.ShrinkCapacity(le)
		if err != nil {
			// Cannot happen given the free-slot check; undo defensively so
			// an engine bug degrades to a rejection instead of a leak.
			for _, undo := range o.edges[:i] {
				if gerr := s.alg.GrowCapacity(undo); gerr != nil {
					return reply{err: fmt.Errorf("engine: shard %d: rollback: %w", s.idx, gerr)}
				}
				s.reserved[undo]--
			}
			return reply{preempted: preempted, err: fmt.Errorf("engine: shard %d: reserve: %w", s.idx, err)}
		}
		s.reserved[le]++
		preempted = append(preempted, s.toGlobal(out.Preempted)...)
	}
	return reply{ok: true, preempted: preempted}
}

// release aborts a granted reservation, restoring the shrunk capacity.
func (s *shard) release(o op) reply {
	for _, le := range o.edges {
		if s.reserved[le] <= 0 {
			return reply{err: fmt.Errorf("engine: shard %d: release of unreserved edge %d", s.idx, le)}
		}
		if err := s.alg.GrowCapacity(le); err != nil {
			return reply{err: fmt.Errorf("engine: shard %d: release: %w", s.idx, err)}
		}
		s.reserved[le]--
	}
	return reply{ok: true}
}

// commit finalizes a granted reservation: the reserved units move to the
// committed ledger, where release cannot reach them. The capacity stays
// shrunk — a committed cross-cluster accept is permanent.
func (s *shard) commit(o op) reply {
	for _, le := range o.edges {
		if s.reserved[le] <= 0 {
			return reply{err: fmt.Errorf("engine: shard %d: commit of unreserved edge %d", s.idx, le)}
		}
	}
	for _, le := range o.edges {
		s.reserved[le]--
		s.committed[le]++
	}
	return reply{ok: true}
}

// grow raises each listed edge's capacity by op.units fresh units (the
// admin scale-up). Growing never preempts, so it always applies fully.
func (s *shard) grow(o op) reply {
	applied := 0
	for _, le := range o.edges {
		for u := 0; u < o.units; u++ {
			if err := s.alg.RaiseCapacity(le); err != nil {
				return reply{applied: applied, err: fmt.Errorf("engine: shard %d: grow: %w", s.idx, err)}
			}
			applied++
		}
	}
	return reply{ok: true, applied: applied}
}

// shrink removes up to op.units capacity units from each listed edge,
// preempting accepted requests as needed (drain semantics). Units the §3
// instance refuses — capacity exhausted, or the fractional adjusted
// capacity consumed by permanent cross-shard accepts — are skipped rather
// than failed: the admin caller learns how much actually drained from the
// applied count and the evicted requests from the preempted list.
func (s *shard) shrink(o op) reply {
	applied := 0
	var preempted []int
	for _, le := range o.edges {
		for u := 0; u < o.units; u++ {
			if !s.alg.CanShrink(le) {
				break
			}
			out, err := s.alg.ShrinkCapacity(le)
			if err != nil {
				return reply{applied: applied, preempted: preempted,
					err: fmt.Errorf("engine: shard %d: shrink: %w", s.idx, err)}
			}
			applied++
			preempted = append(preempted, s.toGlobal(out.Preempted)...)
		}
	}
	return reply{ok: true, applied: applied, preempted: preempted}
}

// snapshot captures the shard's accounting.
func (s *shard) snapshot() shardSnapshot {
	loads := s.alg.Loads()
	caps := s.alg.Capacities()
	for le, r := range s.reserved {
		loads[le] += r + s.committed[le]
		// A reservation consumed capacity via shrink; the observable
		// capacity counts it back so the admin view separates "capacity
		// lent to a cross-shard accept" (load) from "capacity removed by an
		// operator" (gone from caps), and loads ≤ caps holds throughout.
		caps[le] += r + s.committed[le]
	}
	return shardSnapshot{
		requests:     len(s.reqGlobal),
		rejectedCost: s.alg.RejectedCost(),
		preemptions:  s.alg.Preemptions(),
		loads:        loads,
		caps:         caps,
	}
}

// toGlobal maps local request IDs to global ones.
func (s *shard) toGlobal(local []int) []int {
	if len(local) == 0 {
		return nil
	}
	out := make([]int, len(local))
	for i, lid := range local {
		out[i] = s.reqGlobal[lid]
	}
	return out
}
