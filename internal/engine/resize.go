package engine

import (
	"context"
	"fmt"
)

// AllEdges selects every edge of the engine in GrowCapacity and
// ShrinkCapacity, fanning one resize op out to each shard.
const AllEdges = -1

// Resize reports the outcome of one engine-level capacity change.
type Resize struct {
	// Edge is the resized global edge, or AllEdges.
	Edge int
	// Requested is the total number of capacity units asked for (units ×
	// edges touched).
	Requested int
	// Applied is the number of units actually applied. Grows always apply
	// fully; shrinks stop early on edges whose capacity is exhausted or
	// whose fractional adjusted capacity is consumed by permanent accepts.
	Applied int
	// Preempted lists the global request IDs evicted by a shrink's drain
	// (always nil for grows).
	Preempted []int
}

// GrowCapacity raises capacity by units fresh units on the given global
// edge (or on every edge when edge is AllEdges) — the admin control
// plane's scale-up. The op serializes through each owning shard's event
// loop, so it lands at a well-defined point of the decision stream and
// never races in-flight offers; growing never preempts. Cancellation is
// honoured only while enqueueing: once an op is queued the resize runs to
// completion and is waited for, keeping the engine's capacity accounting
// exact.
func (e *Engine) GrowCapacity(ctx context.Context, edge, units int) (Resize, error) {
	return e.resize(ctx, opGrow, edge, units)
}

// ShrinkCapacity removes up to units capacity units from the given global
// edge (or from every edge when edge is AllEdges) with the §4 drain
// semantics: accepted requests are preempted in decreasing
// fractional-weight order until the integral solution fits the reduced
// capacity. Units that cannot drain (capacity already at zero, or
// fractional capacity consumed by permanent cross-shard accepts) are
// skipped and reflected in Resize.Applied rather than failing the call.
func (e *Engine) ShrinkCapacity(ctx context.Context, edge, units int) (Resize, error) {
	return e.resize(ctx, opShrink, edge, units)
}

// resize validates and routes one capacity change, fanning out per shard
// and merging the replies.
func (e *Engine) resize(ctx context.Context, kind opKind, edge, units int) (Resize, error) {
	if units <= 0 {
		return Resize{}, fmt.Errorf("engine: resize of %d units, want > 0", units)
	}
	if edge != AllEdges && (edge < 0 || edge >= len(e.caps)) {
		return Resize{}, fmt.Errorf("engine: resize of unknown edge %d, have %d edges", edge, len(e.caps))
	}
	if !e.rt.Enter() {
		return Resize{}, ErrClosed
	}
	defer e.rt.Exit()

	// One op per involved shard, shards working in parallel.
	targets := []int{edge}
	if edge == AllEdges {
		targets = make([]int, len(e.caps))
		for ge := range targets {
			targets[ge] = ge
		}
	}
	groups := e.groupByShard(targets)
	res := Resize{Edge: edge}
	replies := make([]chan reply, len(groups))
	for i, g := range groups {
		ch, err := e.rt.Send(ctx, g.shard, op{kind: kind, edges: g.edges, units: units})
		if err != nil {
			// Cancelled mid-fire: the ops already queued still apply; await
			// them in the background so the reply channels recycle.
			e.rt.Abandon(replies[:i], nil)
			return Resize{}, err
		}
		res.Requested += units * len(g.edges)
		replies[i] = ch
	}
	var firstErr error
	for _, ch := range replies {
		rep := e.rt.Recv(ch)
		res.Applied += rep.applied
		res.Preempted = append(res.Preempted, rep.preempted...)
		if rep.err != nil && firstErr == nil {
			firstErr = rep.err
		}
	}
	return res, firstErr
}

// Capacities returns the per-global-edge effective capacity vector:
// constructed capacity plus admin grows, minus admin shrinks. Cross-shard
// reservations do not reduce it (they appear as load instead), so
// Snapshot().Loads[e] ≤ Capacities()[e] holds at every quiescent point.
// Consistency matches Stats: per-shard consistent while open, exact after
// Close.
func (e *Engine) Capacities() []int {
	out := make([]int, len(e.caps))
	for si, snap := range e.snapshots() {
		for li, c := range snap.caps {
			out[e.parts[si][li]] = c
		}
	}
	return out
}
