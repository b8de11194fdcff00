// Package engine implements the sharded concurrent admission engine (see
// DESIGN.md §5): a thread-safe serving layer that partitions the edge set
// into K shards, runs an independent instance of the paper's §2/§3
// algorithms inside each shard's event loop, and routes every incoming
// request to the shard(s) owning its edges.
//
// Concurrency model. The shards run on the shared shard runtime
// (service.Shards): each is a single goroutine that owns all of its state —
// the §3 randomized algorithm over the shard's local capacity vector, the
// local→global request map, and the cross-shard reservation counters — and
// decides the operations queued to it in arrival order. There are no
// mutexes on the admission path. Shards never send to other shards, so the
// topology is acyclic and deadlock-free.
//
// Requests whose edges all live in one shard take the fast path: a single
// Offer against that shard's §3 instance, preserving the paper's
// competitive guarantee within the shard. Requests spanning shards take the
// two-phase path: the submitting goroutine reserves one capacity unit per
// edge on every involved shard (reserve = §4 capacity shrink, granted only
// when the edge has a free integral slot and remaining fractional adjusted
// capacity), then commits if every shard
// granted, or aborts (grow back) if any refused. Cross-shard accepts are
// permanent — they are never preempted — which is exactly the semantics the
// §4 reduction gives a shrunk capacity unit.
//
// Determinism: with a single submitting goroutine and one shard the engine
// reproduces the unsharded §3 algorithm decision-for-decision given the same
// seed (tested); with K shards each shard's decision stream is deterministic
// in its own arrival order.
package engine

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"admission/internal/core"
	"admission/internal/graph"
	"admission/internal/problem"
	"admission/internal/service"
)

// The Engine implements the repository-wide generic serving contract
// (DESIGN.md §10): the HTTP layer, client and load generator are written
// against service.Service and serve this engine unchanged.
var (
	_ service.Service[problem.Request, Decision] = (*Engine)(nil)
	_ service.Batcher[problem.Request, Decision] = (*Engine)(nil)
)

// ErrClosed is returned by Submit after Close.
var ErrClosed = errors.New("engine: closed")

// edgeBufPool recycles the local-edge-index scratch slices of the
// single-shard fast path.
var edgeBufPool = sync.Pool{New: func() any {
	b := make([]int, 0, 16)
	return &b
}}

// Config configures the engine.
type Config struct {
	// Shards is the number of edge-set partitions K (default 1, clamped to
	// the number of edges). Ignored when Partition is set.
	Shards int
	// Algorithm configures the per-shard §3 instances. Shard i's seed is
	// derived from Algorithm.Seed so distinct shards flip independent coins;
	// shard 0 uses Algorithm.Seed itself, which makes the single-shard
	// engine bit-identical to the unsharded algorithm.
	Algorithm core.Config
	// Partition optionally fixes the edge partition: Partition[s] lists the
	// global edge IDs owned by shard s. Every edge must appear exactly once.
	// When nil, a contiguous balanced partition over [0, m) is used
	// (graph.PartitionRange); callers with a topology should prefer
	// (*graph.Graph).PartitionEdges for locality.
	Partition [][]int
	// BatchSize bounds how many queued operations a shard drains per loop
	// iteration (default 64).
	BatchSize int
	// QueueLen is each shard's operation queue capacity (default 256).
	QueueLen int
}

// DefaultConfig returns a single-shard engine over the paper's weighted
// constants.
func DefaultConfig() Config {
	return Config{Shards: 1, Algorithm: core.DefaultConfig()}
}

// Decision reports the engine's reaction to one submitted request.
type Decision struct {
	// ID is the engine-assigned global request ID.
	ID int
	// Accepted reports whether the request was admitted. Single-shard
	// accepts may later be preempted (their IDs then appear in a subsequent
	// Decision's Preempted list); cross-shard accepts are permanent.
	Accepted bool
	// CrossShard reports whether the request spanned multiple shards and
	// took the two-phase path.
	CrossShard bool
	// Preempted lists global IDs of previously accepted requests rejected
	// as a consequence of this decision.
	Preempted []int
	// Err carries a per-request engine failure (only reachable through the
	// batch and stream paths; Submit returns such failures as its error
	// instead). A decision with Err set has no other meaningful fields
	// beyond ID, and the request was neither accepted nor charged as
	// rejected.
	Err error
}

// DecisionErr returns the decision's per-request failure, satisfying the
// generic service.Decision constraint.
func (d Decision) DecisionErr() error { return d.Err }

// Stats is a snapshot of the engine's aggregate state. Under concurrent
// submission it is a consistent per-shard snapshot but only approximately
// consistent across shards; after Close it is exact. The serving layer
// (internal/server) exposes these fields — together with the per-shard
// ShardStats view — on its /metrics endpoint.
type Stats struct {
	Requests           int64
	Accepted           int64
	CrossShard         int64
	CrossShardAccepted int64
	// Preemptions counts accept-then-reject events across all shards.
	Preemptions int64
	// RejectedCost is the objective: Σ cost of rejected and preempted
	// requests, aggregated over shards and the cross-shard path.
	RejectedCost float64
	// Loads is the per-global-edge integral load, counting both shard-local
	// accepts and cross-shard reservations. Loads[e] ≤ Capacities[e] always.
	Loads []int
	// Capacities is the per-global-edge effective capacity: constructed
	// capacity plus admin grows, minus admin shrinks (cross-shard
	// reservations count as load, not as removed capacity).
	Capacities []int
}

// Engine is the sharded concurrent admission server. Submit is safe for
// concurrent use by any number of goroutines.
type Engine struct {
	caps      []int
	algCfg    core.Config
	parts     [][]int // shard -> its global edges, by local index
	edgeShard []int32 // global edge -> owning shard
	edgeLocal []int32 // global edge -> index within the shard
	rt        *service.Shards[op, reply]

	nextID        atomic.Int64
	requests      atomic.Int64
	accepted      atomic.Int64
	errs          atomic.Int64 // per-request engine failures (Decision.Err / Submit error)
	crossShard    atomic.Int64
	crossAccepted atomic.Int64
	crossRejected atomicFloat64 // Σ cost of rejected cross-shard requests
}

// New creates an engine over the capacity vector.
func New(capacities []int, cfg Config) (*Engine, error) {
	if len(capacities) == 0 {
		return nil, fmt.Errorf("engine: no edges")
	}
	for e, c := range capacities {
		if c <= 0 {
			return nil, fmt.Errorf("engine: edge %d has capacity %d, want > 0", e, c)
		}
	}
	if err := cfg.Algorithm.Validate(); err != nil {
		return nil, err
	}
	parts, err := graph.ResolvePartition(cfg.Partition, len(capacities), cfg.Shards)
	if err != nil {
		return nil, err
	}

	e := &Engine{
		caps:      append([]int(nil), capacities...),
		algCfg:    cfg.Algorithm,
		parts:     make([][]int, len(parts)),
		edgeShard: make([]int32, len(capacities)),
		edgeLocal: make([]int32, len(capacities)),
	}
	handle := make([]func(op) reply, len(parts))
	for si, part := range parts {
		e.parts[si] = append([]int(nil), part...)
		localCaps := make([]int, len(part))
		for li, ge := range part {
			e.edgeShard[ge] = int32(si)
			e.edgeLocal[ge] = int32(li)
			localCaps[li] = capacities[ge]
		}
		acfg := cfg.Algorithm
		acfg.Seed = service.ShardSeed(cfg.Algorithm.Seed, si)
		alg, err := core.NewRandomized(localCaps, acfg)
		if err != nil {
			return nil, fmt.Errorf("engine: shard %d: %w", si, err)
		}
		s := &shard{
			idx:       si,
			alg:       alg,
			reserved:  make([]int, len(part)),
			committed: make([]int, len(part)),
		}
		handle[si] = s.handle
	}
	e.rt = service.NewShards(handle, op{kind: opStats}, cfg.BatchSize, cfg.QueueLen)
	return e, nil
}

// Shards returns the number of shards.
func (e *Engine) Shards() int { return e.rt.Len() }

// NumEdges returns the number of edges of the capacity vector the engine
// was created over.
func (e *Engine) NumEdges() int { return len(e.caps) }

// Validate checks a request against the engine's edge count and algorithm
// configuration without submitting it. It performs exactly the validation
// Submit would, so callers batching requests (the serving layer) can
// reject malformed items up front and submit only clean batches.
func (e *Engine) Validate(r problem.Request) error {
	if err := r.Validate(len(e.caps)); err != nil {
		return err
	}
	if e.algCfg.Unweighted && r.Cost != 1 {
		return fmt.Errorf("engine: unweighted mode requires cost 1, got %v", r.Cost)
	}
	return nil
}

// Submit offers one request to the engine and blocks until it is decided
// or ctx is done. It is safe for concurrent use; each call is assigned a
// fresh global ID. Cancellation is honoured while enqueueing into a full
// shard queue and while waiting for the decision; an operation that was
// already enqueued is still decided and accounted by the engine (a
// background drainer keeps the counters exact), the caller just stops
// waiting for it.
func (e *Engine) Submit(ctx context.Context, r problem.Request) (Decision, error) {
	if !e.rt.Enter() {
		return Decision{}, ErrClosed
	}
	defer e.rt.Exit()
	if err := e.Validate(r); err != nil {
		return Decision{}, err
	}

	id := int(e.nextID.Add(1) - 1)

	// Fast path: all edges in one shard (the common case under a locality
	// partition) — one local slice, no map.
	if single := e.singleShardOf(r.Edges); single >= 0 {
		ch, buf, err := e.sendOffer(ctx, single, id, r)
		if err != nil {
			return Decision{}, err
		}
		return e.awaitLocal(ctx, id, ch, buf)
	}
	return e.submitCross(ctx, id, e.groupByShard(r.Edges), r.Cost)
}

// singleShardOf returns the shard owning every listed edge, or -1 when the
// edges span shards.
func (e *Engine) singleShardOf(edges []int) int {
	single := int(e.edgeShard[edges[0]])
	for _, ge := range edges[1:] {
		if int(e.edgeShard[ge]) != single {
			return -1
		}
	}
	return single
}

// sendOffer enqueues a single-shard request on its owning shard and counts
// it. The op carries the request's edges localized into a pooled buffer,
// which the receiver of the reply returns to edgeBufPool.
func (e *Engine) sendOffer(ctx context.Context, shard, id int, r problem.Request) (chan reply, *[]int, error) {
	buf := e.localizeEdges(r.Edges)
	ch, err := e.rt.Send(ctx, shard, op{kind: opOffer, globalID: id, edges: *buf, cost: r.Cost})
	if err != nil {
		edgeBufPool.Put(buf)
		return nil, nil, err
	}
	e.requests.Add(1)
	return ch, buf, nil
}

// localizeEdges fills a pooled scratch slice with the shard-local indices
// of the global edges. The caller must return the holder to edgeBufPool,
// but only after the owning shard has replied to the op carrying it.
func (e *Engine) localizeEdges(edges []int) *[]int {
	buf := edgeBufPool.Get().(*[]int)
	local := (*buf)[:0]
	for _, ge := range edges {
		local = append(local, int(e.edgeLocal[ge]))
	}
	*buf = local
	return buf
}

// shardEdges is one shard's part of a multi-shard operation: the owning
// shard and the local indices of its edges.
type shardEdges struct {
	shard int
	edges []int
}

// groupByShard buckets the global edges by owning shard, as local indices,
// in ascending shard order — the order every multi-shard operation fires
// its per-shard ops in.
func (e *Engine) groupByShard(edges []int) []shardEdges {
	var groups []shardEdges
	for _, ge := range edges {
		si := int(e.edgeShard[ge])
		i, found := slices.BinarySearchFunc(groups, si, func(g shardEdges, si int) int { return g.shard - si })
		if !found {
			groups = slices.Insert(groups, i, shardEdges{shard: si})
		}
		groups[i].edges = append(groups[i].edges, int(e.edgeLocal[ge]))
	}
	return groups
}

// awaitLocal waits for a single-shard decision, recycling the pooled edge
// buffer. On ctx cancellation the pending reply is abandoned to a
// background drainer so the engine's accounting (and the pools) stay
// exact.
func (e *Engine) awaitLocal(ctx context.Context, id int, ch chan reply, buf *[]int) (Decision, error) {
	rep, err := e.rt.Await(ctx, ch)
	if err != nil {
		e.rt.Abandon([]chan reply{ch}, func(_ int, rep reply) {
			edgeBufPool.Put(buf)
			_, _ = e.finishLocal(id, rep)
		})
		return Decision{}, err
	}
	edgeBufPool.Put(buf)
	return e.finishLocal(id, rep)
}

// finishLocal folds a single-shard reply into the engine's accounting and
// the Decision.
func (e *Engine) finishLocal(id int, rep reply) (Decision, error) {
	if rep.err != nil {
		e.errs.Add(1)
		return Decision{}, rep.err
	}
	if rep.ok {
		e.accepted.Add(1)
	}
	return Decision{ID: id, Accepted: rep.ok, Preempted: rep.preempted}, nil
}

// submitCross runs the two-phase cross-shard path: reserve on every involved
// shard, then commit (keep the reservations) or abort (grow them back).
// Cancellation is honoured while firing the reservations; once every
// involved shard has the operation queued, the protocol runs to completion
// (phase 2 restores invariants and must not be abandoned half-way).
func (e *Engine) submitCross(ctx context.Context, id int, groups []shardEdges, cost float64) (Decision, error) {
	// Phase 1: fire all reservations, then collect. Shards work in
	// parallel; replies arrive on per-op buffered channels.
	replies := make([]chan reply, len(groups))
	for i, g := range groups {
		ch, err := e.rt.Send(ctx, g.shard, op{kind: opReserve, globalID: id, edges: g.edges})
		if err != nil {
			// Cancelled mid-fire: resolve the reservations already queued in
			// the background (collect grants, then release them) so no
			// capacity unit leaks.
			e.rt.Abandon(replies[:i], func(j int, rep reply) {
				if rep.err == nil && rep.ok {
					e.rt.Call(groups[j].shard, op{kind: opRelease, edges: groups[j].edges})
				}
			})
			return Decision{}, err
		}
		replies[i] = ch
	}
	e.crossShard.Add(1)
	e.requests.Add(1)
	granted := make([]shardEdges, 0, len(groups))
	var preempted []int
	ok := true
	var firstErr error
	for i, g := range groups {
		rep := e.rt.Recv(replies[i])
		if rep.err != nil && firstErr == nil {
			firstErr = rep.err
		}
		preempted = append(preempted, rep.preempted...)
		if rep.err == nil && rep.ok {
			granted = append(granted, g)
		} else {
			ok = false
		}
	}

	// Phase 2: abort on any refusal, releasing the granted reservations.
	if !ok {
		for _, g := range granted {
			rep := e.rt.Call(g.shard, op{kind: opRelease, edges: g.edges})
			if rep.err != nil && firstErr == nil {
				firstErr = rep.err
			}
		}
		if firstErr != nil {
			e.errs.Add(1)
			return Decision{}, firstErr
		}
		e.crossRejected.Add(cost)
		return Decision{ID: id, CrossShard: true, Preempted: preempted}, nil
	}
	e.accepted.Add(1)
	e.crossAccepted.Add(1)
	return Decision{ID: id, Accepted: true, CrossShard: true, Preempted: preempted}, nil
}

// SubmitBatch submits a sequence of requests in slice order and returns one
// Decision per request, in the same order. Unlike a loop over Submit, the
// batch is pipelined: every single-shard request is dispatched to its
// owning shard without waiting for the previous reply, so the per-request
// channel round-trip latency is paid once per batch rather than once per
// request. Per-shard arrival order — and therefore the decision stream —
// is identical to submitting the same slice sequentially through Submit.
// Cross-shard requests still decide inline (the two-phase protocol needs
// replies before it can commit), retaining their position in the order.
//
// Validation is atomic: every request is checked before any is dispatched,
// and a validation failure returns an error with no decisions made. The
// returned error reports such whole-batch failures (validation, ErrClosed,
// a ctx cancelled mid-dispatch); rare per-request engine failures are
// attributed to the failing request via Decision.Err instead of poisoning
// the rest of the batch. SubmitBatch is safe for concurrent use alongside
// Submit.
func (e *Engine) SubmitBatch(ctx context.Context, reqs []problem.Request) ([]Decision, error) {
	for i := range reqs {
		if err := e.Validate(reqs[i]); err != nil {
			return nil, fmt.Errorf("engine: batch[%d]: %w", i, err)
		}
	}
	return e.SubmitBatchPrevalidated(ctx, reqs)
}

// SubmitBatchPrevalidated is SubmitBatch without the per-request
// validation pass, for callers that have already run Validate on every
// item — the serving layer validates at the HTTP boundary (where a
// failure must map to a 400 before anything is enqueued) and would
// otherwise pay the same scan twice per request on the hot path.
// Submitting an unvalidated request through it is undefined behaviour.
func (e *Engine) SubmitBatchPrevalidated(ctx context.Context, reqs []problem.Request) ([]Decision, error) {
	if len(reqs) == 0 {
		return nil, nil
	}
	if !e.rt.Enter() {
		return nil, ErrClosed
	}
	defer e.rt.Exit()

	out := make([]Decision, len(reqs))
	type pendingOffer struct {
		idx int
		ch  chan reply
		buf *[]int
	}
	pend := make([]pendingOffer, 0, len(reqs))
	// drainPend abandons already-fired offers to a background drainer after
	// a mid-dispatch cancellation, keeping the accounting and pools exact.
	drainPend := func(pend []pendingOffer) {
		fired := make([]chan reply, len(pend))
		for i, p := range pend {
			fired[i] = p.ch
		}
		e.rt.Abandon(fired, func(i int, rep reply) {
			edgeBufPool.Put(pend[i].buf)
			_, _ = e.finishLocal(out[pend[i].idx].ID, rep)
		})
	}

	for i := range reqs {
		r := reqs[i]
		id := int(e.nextID.Add(1) - 1)
		out[i].ID = id

		if single := e.singleShardOf(r.Edges); single >= 0 {
			ch, buf, err := e.sendOffer(ctx, single, id, r)
			if err != nil {
				drainPend(pend)
				return nil, err
			}
			pend = append(pend, pendingOffer{idx: i, ch: ch, buf: buf})
			continue
		}
		d, err := e.submitCross(ctx, id, e.groupByShard(r.Edges), r.Cost)
		if err != nil {
			if ctx.Err() != nil {
				// Cancelled mid-dispatch: whole-batch failure (submitCross
				// has already scheduled its own cleanup).
				drainPend(pend)
				return nil, err
			}
			out[i].Err = err
			continue
		}
		out[i] = d
	}

	// Collect the pipelined single-shard replies. Every fired op must be
	// received even after an error, or reply channels and edge buffers
	// leak; the ops are already queued, so the waits here are bounded by
	// shard processing, not by new traffic.
	for _, p := range pend {
		rep := e.rt.Recv(p.ch)
		edgeBufPool.Put(p.buf)
		d, err := e.finishLocal(out[p.idx].ID, rep)
		if err != nil {
			out[p.idx].Err = err
			continue
		}
		out[p.idx].Accepted = d.Accepted
		out[p.idx].Preempted = d.Preempted
	}
	return out, nil
}

// Stream opens an ordered, pipelined submission stream over the engine
// (the generic service contract's third submission shape): Send dispatches
// a request to its shard without waiting for earlier decisions, Recv
// yields decisions in send order. Single-shard requests pipeline through
// the shard queues; cross-shard requests decide inline during Send, like
// SubmitBatch. The stream's buffers are sized by the engine's configured
// queue length (window ≈ 2× that).
func (e *Engine) Stream(ctx context.Context) (*service.Stream[problem.Request, Decision], error) {
	if e.rt.Closed() {
		return nil, ErrClosed
	}
	return service.NewStream(ctx, e.rt.QueueLen(), e.dispatch), nil
}

// dispatch fires one request for the stream path and returns an Await for
// its decision. It performs exactly Submit's validation and dispatch; only
// the wait is deferred.
func (e *Engine) dispatch(ctx context.Context, r problem.Request) (service.Await[Decision], error) {
	if !e.rt.Enter() {
		return nil, ErrClosed
	}
	defer e.rt.Exit()
	if err := e.Validate(r); err != nil {
		return nil, err
	}
	id := int(e.nextID.Add(1) - 1)
	if single := e.singleShardOf(r.Edges); single >= 0 {
		ch, buf, err := e.sendOffer(ctx, single, id, r)
		if err != nil {
			return nil, err
		}
		return func(ctx context.Context) (Decision, error) {
			d, err := e.awaitLocal(ctx, id, ch, buf)
			// Per-request engine failures travel on the decision (like the
			// batch path), so stream consumers can keep reading; only
			// cancellation surfaces as the Await's error.
			if err != nil && ctx.Err() == nil {
				return Decision{ID: id, Err: err}, nil
			}
			return d, err
		}, nil
	}
	d, err := e.submitCross(ctx, id, e.groupByShard(r.Edges), r.Cost)
	if err != nil {
		if ctx.Err() != nil {
			return nil, err
		}
		d, err = Decision{ID: id, Err: err}, nil
	}
	return service.Ready(d, err), nil
}

// ShardStat is a per-shard snapshot of load and accounting, the data
// behind the serving layer's per-shard occupancy metrics. Load counts the
// shard's integral load including cross-shard reservations; Capacity is
// the sum of the shard's edge capacities, so Load/Capacity is the shard's
// occupancy in [0, 1].
type ShardStat struct {
	// Shard is the shard index in [0, Shards()).
	Shard int
	// Requests counts the single-shard requests the shard has decided.
	Requests int
	// Preemptions counts accept-then-reject events inside the shard.
	Preemptions int
	// RejectedCost is the shard's share of the objective.
	RejectedCost float64
	// Load is Σ over the shard's edges of integral load plus reservations.
	Load int
	// Capacity is Σ over the shard's edges of effective capacity
	// (constructed capacity adjusted by admin grows and shrinks).
	Capacity int
}

// ShardStats returns one ShardStat per shard. Consistency matches Stats:
// per-shard consistent while open, exact after Close.
func (e *Engine) ShardStats() []ShardStat {
	snaps := e.snapshots()
	out := make([]ShardStat, len(snaps))
	for si, snap := range snaps {
		st := ShardStat{
			Shard:        si,
			Requests:     snap.requests,
			Preemptions:  snap.preemptions,
			RejectedCost: snap.rejectedCost,
		}
		for li, load := range snap.loads {
			st.Load += load
			st.Capacity += snap.caps[li]
		}
		out[si] = st
	}
	return out
}

// RejectedCost returns the engine's running objective: total cost of
// rejected and preempted requests across all shards plus rejected
// cross-shard requests. See Stats for the consistency caveat under
// concurrent submission.
func (e *Engine) RejectedCost() float64 {
	total := e.crossRejected.Load()
	for _, snap := range e.snapshots() {
		total += snap.rejectedCost
	}
	return total
}

// Stats returns the uniform service-level statistics snapshot (generic
// serving contract). The workload-specific detail — per-edge loads,
// cross-shard counters — is on Snapshot.
func (e *Engine) Stats() service.Stats {
	return service.Stats{
		Requests:  e.requests.Load(),
		Accepted:  e.accepted.Load(),
		Errors:    e.errs.Load(),
		Objective: e.RejectedCost(),
		Shards:    e.rt.Len(),
	}
}

// Snapshot returns the engine's full aggregate state.
func (e *Engine) Snapshot() Stats {
	st := Stats{
		Requests:           e.requests.Load(),
		Accepted:           e.accepted.Load(),
		CrossShard:         e.crossShard.Load(),
		CrossShardAccepted: e.crossAccepted.Load(),
		RejectedCost:       e.crossRejected.Load(),
		Loads:              make([]int, len(e.caps)),
		Capacities:         make([]int, len(e.caps)),
	}
	for si, snap := range e.snapshots() {
		st.RejectedCost += snap.rejectedCost
		st.Preemptions += int64(snap.preemptions)
		for li, load := range snap.loads {
			ge := e.parts[si][li]
			st.Loads[ge] = load
			st.Capacities[ge] = snap.caps[li]
		}
	}
	return st
}

// snapshots collects one state snapshot per shard: live while the engine
// is open, exact after Close (service.Shards.Snapshots).
func (e *Engine) snapshots() []shardSnapshot {
	reps := e.rt.Snapshots()
	out := make([]shardSnapshot, len(reps))
	for i, rep := range reps {
		out[i] = rep.stats
	}
	return out
}

// Drain blocks until no submissions are in flight — including the
// background accounting of cancellation-abandoned operations — or ctx is
// done. It does not stop new submissions — callers quiesce traffic first
// (the serving layer refuses new work, then drains, then closes).
func (e *Engine) Drain(ctx context.Context) error { return e.rt.Drain(ctx) }

// Close shuts the engine down: subsequent Submits fail with ErrClosed,
// in-flight submissions finish, and every shard loop exits after recording
// its final snapshot. Snapshot, Stats and RejectedCost remain usable (and
// exact) afterwards; for operations abandoned through a Stream whose
// context died, exactness additionally requires the stream to have been
// closed and fully resolved (Recv to io.EOF) first. Close is idempotent
// and always returns nil (the error is part of the generic service
// contract).
func (e *Engine) Close() error {
	e.rt.Close()
	return nil
}

// atomicFloat64 is a lock-free accumulating float64 (CAS loop over bits).
type atomicFloat64 struct{ bits atomic.Uint64 }

func (a *atomicFloat64) Add(delta float64) {
	for {
		old := a.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if a.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

func (a *atomicFloat64) Load() float64 { return math.Float64frombits(a.bits.Load()) }
