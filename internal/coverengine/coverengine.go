// Package coverengine serves online set cover with repetitions (§§4–5 of
// the paper) on the shared shard runtime (service.Shards, DESIGN.md §5 and
// §9): the set system is registered up front, element arrivals are
// submitted concurrently via Submit/SubmitBatch, and each decision reports
// exactly which sets were newly bought for that arrival.
//
// Sharding model. The ground set of elements is partitioned into K shards;
// each shard owns its elements' arrival streams and runs a full, independent
// instance of the chosen online algorithm over the *restriction* of the set
// system to its elements (every global set contributes the portion of its
// elements the shard owns). A set that spans shards therefore has one
// portion per involved shard; whichever portion is bought first buys the
// global set, later buys of other portions are deduplicated by the engine's
// global chosen ledger (a set is paid for exactly once; sets are never
// un-chosen). Because every set containing an element is visible — through
// its portion — to the element's owning shard, the per-shard guarantee
// "element arrived k times ⇒ covered by k distinct portions" lifts directly
// to k distinct global sets; the global cost is at most the sum of the
// per-shard costs, each O(log m·log n)-competitive against its local
// optimum (Theorem 4 via the §4 reduction, or Theorem 7 for Bicriteria
// mode).
//
// Concurrency model: each shard is a single event-loop goroutine owning all
// of its algorithm state. The global chosen ledger is the only cross-shard
// state and is guarded by a mutex touched once per bought set — not per
// arrival.
//
// Determinism: with one shard and one submitter the engine is
// decision-for-decision identical to the sequential §4 reduction
// (setcover.ReductionRunner with the same seed); the golden trace tests
// prove it. With K shards each shard's decision stream is deterministic in
// its own arrival order.
package coverengine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"admission/internal/core"
	"admission/internal/graph"
	"admission/internal/service"
	"admission/internal/setcover"
)

// The Engine implements the repository-wide generic serving contract
// (DESIGN.md §10) with element ids as requests, so the HTTP layer, client
// and load generator serve it through the same generic code path as the
// admission engine.
var (
	_ service.Service[int, Decision] = (*Engine)(nil)
	_ service.Batcher[int, Decision] = (*Engine)(nil)
)

// ErrClosed is returned by Submit after Close.
var ErrClosed = errors.New("coverengine: closed")

// Mode selects the online algorithm run inside every shard.
type Mode uint8

// Modes of the cover engine.
const (
	// ModeReduction runs the §4 reduction to admission control driven by
	// the randomized preemptive algorithm (Theorem 4 ⇒ O(log m·log n)).
	ModeReduction Mode = iota
	// ModeBicriteria runs the §5 deterministic bicriteria algorithm: every
	// element arrived k times is covered by at least (1−ε)k distinct sets.
	ModeBicriteria
)

// String names the mode for logs and tables.
func (m Mode) String() string {
	switch m {
	case ModeReduction:
		return "reduction"
	case ModeBicriteria:
		return "bicriteria"
	default:
		return fmt.Sprintf("Mode(%d)", uint8(m))
	}
}

// Config configures the cover engine.
type Config struct {
	// Shards is the number of element-partition shards K (default 1,
	// clamped to the number of elements). Ignored when Partition is set.
	Shards int
	// Mode selects the per-shard algorithm (default ModeReduction).
	Mode Mode
	// Core optionally fixes the admission-control configuration of
	// ModeReduction shards. When nil it is derived from the instance the
	// way setcover.ReductionConfig does: unweighted constants for unit
	// costs, weighted otherwise, seeded from Seed. Shard i's seed is
	// derived from the base seed; shard 0 keeps it, making the one-shard
	// engine bit-identical to the sequential reduction.
	Core *core.Config
	// Seed drives the randomized per-shard algorithms (ModeReduction).
	Seed uint64
	// Eps is the bicriteria slack ε ∈ (0,1) (ModeBicriteria only; the zero
	// value means the default 0.25, anything else outside (0,1) is
	// rejected by New).
	Eps float64
	// Partition optionally fixes the element partition: Partition[s] lists
	// the global element ids owned by shard s, each element exactly once.
	// When nil a contiguous balanced partition over [0, N) is used.
	Partition [][]int
	// BatchSize bounds how many queued arrivals a shard drains per loop
	// iteration (default 64).
	BatchSize int
	// QueueLen is each shard's operation queue capacity (default 256).
	QueueLen int
}

func (c Config) eps() float64 {
	if c.Eps == 0 {
		return 0.25
	}
	return c.Eps
}

// Decision reports the engine's reaction to one submitted element arrival.
type Decision struct {
	// Seq is the engine-assigned global arrival sequence number.
	Seq int
	// Element is the element that arrived.
	Element int
	// Arrival is k: how many times the element has now arrived (counting
	// this arrival), in its owning shard's processing order.
	Arrival int
	// NewSets lists the global ids of sets newly bought by this arrival,
	// in purchase order. Sets already chosen (by any earlier decision on
	// any shard) never reappear: the cover only grows.
	NewSets []int
	// AddedCost is the total cost of NewSets.
	AddedCost float64
	// Err carries a per-arrival failure (unknown element, or an element
	// arriving more often than its degree — see
	// setcover.ErrElementSaturated). A decision with Err set changed no
	// engine state.
	Err error
}

// DecisionErr returns the decision's per-arrival failure, satisfying the
// generic service.Decision constraint.
func (d Decision) DecisionErr() error { return d.Err }

// Stats is a snapshot of the cover engine's aggregate state: per-shard
// consistent while open, exact after Close.
type Stats struct {
	// Arrivals counts successfully served element arrivals.
	Arrivals int64
	// Errors counts refused arrivals (saturated or unknown elements).
	Errors int64
	// ChosenSets is the number of distinct sets bought so far.
	ChosenSets int
	// Cost is the total cost of the chosen sets (each set paid once).
	Cost float64
	// Preemptions counts phase-2 preemption events across all shards
	// (ModeReduction; a preemption buys a portion, which may or may not
	// buy a new global set).
	Preemptions int64
	// Augmentations counts weight augmentations across all shards
	// (ModeBicriteria, the quantity Lemma 5 bounds).
	Augmentations int64
}

// Engine is the sharded concurrent set cover server. Submit and
// SubmitBatch are safe for concurrent use by any number of goroutines.
type Engine struct {
	ins       *setcover.Instance
	mode      Mode
	seed      uint64       // Config.Seed, kept for Fingerprint
	eps       float64      // resolved bicriteria slack, kept for Fingerprint
	coreCfg   *core.Config // Config.Core, kept for Fingerprint
	elemShard []int32      // global element -> owning shard
	elemLocal []int32      // global element -> index within the shard
	rt        *service.Shards[op, reply]

	// The global chosen ledger: which sets have been bought, their count
	// and total cost. Guarded by mu; touched only when a shard reports a
	// locally bought portion, not per arrival.
	mu          sync.Mutex
	chosen      []bool
	chosenCount int
	cost        float64

	seq      atomic.Int64
	arrivals atomic.Int64
	errs     atomic.Int64
}

// New creates a cover engine over the validated set system. Construction
// runs every shard's setup phase (phase 1 of the §4 reduction in
// ModeReduction), so Chosen may be non-empty before the first arrival —
// exactly as in the sequential reduction.
func New(ins *setcover.Instance, cfg Config) (*Engine, error) {
	if err := ins.Validate(); err != nil {
		return nil, err
	}
	// A mistyped slack must fail loudly rather than silently run with the
	// default (a -cover-eps typo would otherwise serve different coverage
	// than the operator configured).
	if cfg.Eps != 0 && (cfg.Eps <= 0 || cfg.Eps >= 1) {
		return nil, fmt.Errorf("coverengine: Eps = %v outside (0,1)", cfg.Eps)
	}
	parts, err := graph.ResolvePartition(cfg.Partition, ins.N, cfg.Shards)
	if err != nil {
		return nil, err
	}

	e := &Engine{
		ins:       ins,
		mode:      cfg.Mode,
		seed:      cfg.Seed,
		eps:       cfg.eps(),
		coreCfg:   cfg.Core,
		elemShard: make([]int32, ins.N),
		elemLocal: make([]int32, ins.N),
		chosen:    make([]bool, ins.M()),
	}
	byElem := ins.SetsOf()
	handle := make([]func(op) reply, len(parts))
	for si, part := range parts {
		for li, ge := range part {
			e.elemShard[ge] = int32(si)
			e.elemLocal[ge] = int32(li)
		}
		s, err := newShard(si, ins, byElem, part, cfg)
		if err != nil {
			return nil, fmt.Errorf("coverengine: shard %d: %w", si, err)
		}
		// Phase-1 rejections are bought before any arrival.
		e.claim(s.initialChosen)
		handle[si] = s.handle
		// Yield between shard builds: each is a long allocation burst with
		// no scheduling point, and a collection that starts inside one
		// cannot finish marking before it ends, so the heap grows
		// unchecked meanwhile (peak RSS ~20% higher on a 4-shard,
		// 20000-set instance without this).
		runtime.Gosched()
	}
	e.rt = service.NewShards(handle, op{kind: opStats}, cfg.BatchSize, cfg.QueueLen)
	return e, nil
}

// Shards returns the number of shards.
func (e *Engine) Shards() int { return e.rt.Len() }

// Mode returns the per-shard algorithm mode.
func (e *Engine) Mode() Mode { return e.mode }

// NumElements returns the ground set size N.
func (e *Engine) NumElements() int { return e.ins.N }

// NumSets returns the set family size m.
func (e *Engine) NumSets() int { return e.ins.M() }

// Validate checks an element id the way Submit would, so callers batching
// arrivals (the serving layer) can 400 malformed items up front.
func (e *Engine) Validate(j int) error {
	if j < 0 || j >= e.ins.N {
		return fmt.Errorf("coverengine: element %d outside [0,%d)", j, e.ins.N)
	}
	return nil
}

// claim marks set ids as bought in the global ledger and returns the ids
// that were new, in input order, with their total cost. Already-chosen ids
// (bought earlier by any shard) are dropped — a set is paid for once and
// never un-chosen.
func (e *Engine) claim(ids []int) (fresh []int, added float64) {
	if len(ids) == 0 {
		return nil, 0
	}
	e.mu.Lock()
	for _, id := range ids {
		if e.chosen[id] {
			continue
		}
		e.chosen[id] = true
		e.chosenCount++
		c := e.ins.Cost(id)
		e.cost += c
		added += c
		fresh = append(fresh, id)
	}
	e.mu.Unlock()
	return fresh, added
}

// Submit serves one element arrival and blocks until it is decided or ctx
// is done. Safe for concurrent use; each call is assigned a fresh global
// sequence number. Cancellation is honoured while enqueueing into a full
// shard queue and while waiting; an arrival already enqueued is still
// served and accounted (a background drainer keeps the ledger exact), the
// caller just stops waiting for it.
func (e *Engine) Submit(ctx context.Context, element int) (Decision, error) {
	if !e.rt.Enter() {
		return Decision{}, ErrClosed
	}
	defer e.rt.Exit()
	if err := e.Validate(element); err != nil {
		return Decision{}, err
	}
	seq := int(e.seq.Add(1) - 1)
	ch, err := e.send(ctx, element)
	if err != nil {
		return Decision{}, err
	}
	return e.await(ctx, seq, element, ch)
}

// send enqueues one arrival on the element's owning shard.
func (e *Engine) send(ctx context.Context, element int) (chan reply, error) {
	return e.rt.Send(ctx, int(e.elemShard[element]), op{kind: opArrive, elem: int(e.elemLocal[element])})
}

// await waits for a shard reply, folding it into the engine's accounting;
// on ctx cancellation the pending reply is abandoned to a background
// drainer so the ledger and counters stay exact.
func (e *Engine) await(ctx context.Context, seq, element int, ch chan reply) (Decision, error) {
	rep, err := e.rt.Await(ctx, ch)
	if err != nil {
		e.rt.Abandon([]chan reply{ch}, func(_ int, rep reply) { e.finish(seq, element, rep) })
		return Decision{}, err
	}
	return e.finish(seq, element, rep), nil
}

// finish folds a shard reply into engine accounting and the Decision.
func (e *Engine) finish(seq, element int, rep reply) Decision {
	d := Decision{Seq: seq, Element: element}
	if rep.err != nil {
		e.errs.Add(1)
		d.Err = rep.err
		return d
	}
	e.arrivals.Add(1)
	d.Arrival = rep.arrival
	d.NewSets, d.AddedCost = e.claim(rep.newSets)
	return d
}

// SubmitBatch serves a sequence of element arrivals in slice order and
// returns one Decision per arrival, in the same order. It is pipelined:
// every arrival is dispatched to its owning shard before any reply is
// awaited, so the per-arrival channel round-trip is paid once per batch. Per-shard arrival order — and hence
// the decision stream — is identical to a sequential Submit loop.
// Validation is atomic: any out-of-range element fails the whole batch
// before anything is dispatched. Per-arrival failures (saturated elements)
// arrive as Decision.Err instead; a ctx cancelled mid-dispatch fails the
// whole batch (already-dispatched arrivals are still served and accounted
// in the background).
func (e *Engine) SubmitBatch(ctx context.Context, elements []int) ([]Decision, error) {
	for i, j := range elements {
		if err := e.Validate(j); err != nil {
			return nil, fmt.Errorf("coverengine: batch[%d]: %w", i, err)
		}
	}
	return e.SubmitBatchPrevalidated(ctx, elements)
}

// SubmitBatchPrevalidated is SubmitBatch without the per-arrival
// validation pass, for callers that have already run Validate on every
// item (the serving layer validates at the HTTP boundary). Submitting an
// unvalidated element through it is undefined behaviour.
func (e *Engine) SubmitBatchPrevalidated(ctx context.Context, elements []int) ([]Decision, error) {
	if len(elements) == 0 {
		return nil, nil
	}
	if !e.rt.Enter() {
		return nil, ErrClosed
	}
	defer e.rt.Exit()

	out := make([]Decision, len(elements))
	replies := make([]chan reply, len(elements))
	for i, j := range elements {
		seq := int(e.seq.Add(1) - 1)
		out[i].Seq = seq
		out[i].Element = j
		ch, err := e.send(ctx, j)
		if err != nil {
			// Cancelled mid-dispatch: resolve the already-fired arrivals in
			// the background so the ledger stays exact, then fail the batch.
			pending := slices.Clone(out[:i])
			e.rt.Abandon(replies[:i], func(k int, rep reply) {
				e.finish(pending[k].Seq, pending[k].Element, rep)
			})
			return nil, err
		}
		replies[i] = ch
	}
	for i, ch := range replies {
		out[i] = e.finish(out[i].Seq, out[i].Element, e.rt.Recv(ch))
	}
	return out, nil
}

// Stream opens an ordered, pipelined arrival stream over the engine (the
// generic service contract's third submission shape): Send dispatches an
// element to its owning shard without waiting for earlier decisions, Recv
// yields decisions in send order. The stream's buffers are sized by the
// engine's configured queue length (window ≈ 2× that).
func (e *Engine) Stream(ctx context.Context) (*service.Stream[int, Decision], error) {
	if e.rt.Closed() {
		return nil, ErrClosed
	}
	return service.NewStream(ctx, e.rt.QueueLen(), e.dispatch), nil
}

// dispatch fires one arrival for the stream path and returns an Await for
// its decision; it performs exactly Submit's validation and dispatch, only
// the wait is deferred.
func (e *Engine) dispatch(ctx context.Context, element int) (service.Await[Decision], error) {
	if !e.rt.Enter() {
		return nil, ErrClosed
	}
	defer e.rt.Exit()
	if err := e.Validate(element); err != nil {
		return nil, err
	}
	seq := int(e.seq.Add(1) - 1)
	ch, err := e.send(ctx, element)
	if err != nil {
		return nil, err
	}
	return func(ctx context.Context) (Decision, error) {
		return e.await(ctx, seq, element, ch)
	}, nil
}

// Chosen returns the global ids of all bought sets, ascending.
func (e *Engine) Chosen() []int {
	e.mu.Lock()
	out := make([]int, 0, e.chosenCount)
	for id, c := range e.chosen {
		if c {
			out = append(out, id)
		}
	}
	e.mu.Unlock()
	sort.Ints(out)
	return out
}

// Cost returns the total cost of the chosen sets.
func (e *Engine) Cost() float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.cost
}

// ChosenCount returns the number of distinct sets bought so far. Unlike
// Stats it touches only the ledger mutex — no shard round-trips — so it is
// cheap enough for per-scrape metrics gauges.
func (e *Engine) ChosenCount() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.chosenCount
}

// Stats returns the uniform service-level statistics snapshot (generic
// serving contract). The workload-specific detail — chosen sets, cost,
// preemptions, augmentations — is on Snapshot.
func (e *Engine) Stats() service.Stats {
	// Load each counter once so the snapshot is internally consistent
	// (Requests == Accepted + Errors) even under concurrent submission.
	arrivals, errs := e.arrivals.Load(), e.errs.Load()
	st := service.Stats{
		Requests: arrivals + errs,
		Accepted: arrivals,
		Errors:   errs,
		Shards:   e.rt.Len(),
	}
	e.mu.Lock()
	st.Objective = e.cost
	e.mu.Unlock()
	return st
}

// Snapshot returns the engine's full aggregate state.
func (e *Engine) Snapshot() Stats {
	st := Stats{
		Arrivals: e.arrivals.Load(),
		Errors:   e.errs.Load(),
	}
	e.mu.Lock()
	st.ChosenSets = e.chosenCount
	st.Cost = e.cost
	e.mu.Unlock()
	for _, snap := range e.snapshots() {
		st.Preemptions += int64(snap.preemptions)
		st.Augmentations += int64(snap.augmentations)
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
// background accounting of cancellation-abandoned arrivals — or ctx is
// done. It does not stop new submissions — callers quiesce traffic first
// (the serving layer refuses new work, then drains, then closes).
func (e *Engine) Drain(ctx context.Context) error { return e.rt.Drain(ctx) }

// Close shuts the engine down: subsequent Submits fail with ErrClosed,
// in-flight submissions finish, and every shard loop exits after recording
// its final snapshot. Chosen, Cost, Snapshot and Stats remain usable (and
// exact) afterwards; for arrivals abandoned through a Stream whose context
// died, exactness additionally requires the stream to have been closed and
// fully resolved (Recv to io.EOF) first. Close is idempotent and always
// returns nil (the error is part of the generic service contract).
func (e *Engine) Close() error {
	e.rt.Close()
	return nil
}
