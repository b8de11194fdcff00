// Package lca is the local-computation query tier (DESIGN.md §13): the
// third served workload, answering stateless "what would the decision for
// arrival position r be?" queries against a seeded arrival order instead
// of streaming the whole sequence through one stateful engine.
//
// The arrival order is not transmitted: server and client both derive it
// from a (workload name, seed) pair through internal/workload's named
// generators, so a query is just a position (plus a fidelity selector) and
// the engine reconstructs whatever part of the sequence determines that
// position's outcome. Following the local-computation-algorithms framing
// of the paper's setting ("Converting Online Algorithms to Local
// Computation Algorithms", Mansour et al.; space-efficient LCAs per Alon,
// Rubinfeld, Vardi & Xie), every query is answered by an independent
// bounded simulation with no shared mutable ledger — queries fan out
// across workers with near-linear scaling, which is the whole point of
// this read path.
//
// Two fidelity layers trade replay work against global exactness:
//
//   - FidelityExact (the default) replays the full prefix [0, r] through a
//     fresh §3 instance seeded with the engine's algorithm seed. Because
//     the single-shard streaming engine is bit-identical to the unsharded
//     algorithm under the same seed, an exact answer is line-identical to
//     the decision the streaming engine emits at position r — the
//     guarantee experiment E18 and this package's property suite assert.
//   - FidelityNeighborhood replays only r's conflict component: the
//     prefix requests connected to r through chains of shared edges.
//     Requests outside the component cannot contend for r's capacity, so
//     the local simulation is self-consistent and deterministic (the same
//     query always returns the same answer), but the §3 coin-flip stream
//     and the §2 α-doubling phases are global in the streaming run, so a
//     neighborhood answer is a documented approximation — exact whenever
//     the component spans the whole prefix (e.g. the single-edge
//     workload).
//
// Concurrency contract: an Engine is safe for concurrent use by any
// number of goroutines; every query simulation runs on private state, and
// a semaphore bounds concurrent simulations at Config.Workers. Statistics
// are atomically aggregated and exact after Close.
package lca

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"admission/internal/core"
	"admission/internal/problem"
	"admission/internal/service"
	"admission/internal/workload"
)

// ErrClosed is returned by submissions after Close.
var ErrClosed = errors.New("lca: engine closed")

// Fidelity selects how much of the arrival order a query replays.
type Fidelity uint8

const (
	// FidelityExact replays the full prefix [0, r]; the answer is
	// line-identical to the streaming engine's decision at position r.
	FidelityExact Fidelity = iota
	// FidelityNeighborhood replays only r's edge-conflict component of the
	// prefix: deterministic and self-consistent, but an approximation of
	// the global streaming run (exact when the component spans the prefix).
	FidelityNeighborhood

	numFidelities
)

// String returns the CLI/JSON spelling of the fidelity.
func (f Fidelity) String() string {
	switch f {
	case FidelityExact:
		return "exact"
	case FidelityNeighborhood:
		return "neighborhood"
	default:
		return fmt.Sprintf("Fidelity(%d)", uint8(f))
	}
}

// Valid reports whether f names a known fidelity layer.
func (f Fidelity) Valid() bool { return f < numFidelities }

// ParseFidelity maps the CLI/JSON spelling of a fidelity to its value; the
// empty string means FidelityExact.
func ParseFidelity(s string) (Fidelity, error) {
	switch s {
	case "", "exact":
		return FidelityExact, nil
	case "neighborhood":
		return FidelityNeighborhood, nil
	default:
		return 0, fmt.Errorf("lca: unknown fidelity %q (want exact|neighborhood)", s)
	}
}

// MarshalJSON renders the fidelity as its string spelling.
func (f Fidelity) MarshalJSON() ([]byte, error) {
	if !f.Valid() {
		return nil, fmt.Errorf("lca: cannot marshal %s", f)
	}
	return []byte(`"` + f.String() + `"`), nil
}

// UnmarshalJSON parses the string spelling (or the empty string, meaning
// exact).
func (f *Fidelity) UnmarshalJSON(b []byte) error {
	if len(b) < 2 || b[0] != '"' || b[len(b)-1] != '"' {
		return fmt.Errorf("lca: fidelity must be a JSON string, got %s", b)
	}
	v, err := ParseFidelity(string(b[1 : len(b)-1]))
	if err != nil {
		return err
	}
	*f = v
	return nil
}

// Source names the seeded arrival order the engine answers queries about.
// Server and client agree on the sequence by exchanging only this spec
// (in practice: matching acserve/acload flags), never the requests.
type Source struct {
	// Workload is a named generator from internal/workload (BuildNamed).
	Workload string
	// Model is the request cost model.
	Model workload.CostModel
	// Capacity is the per-edge capacity handed to the generator.
	Capacity int
	// N is the arrival-sequence length; queries address positions [0, N).
	N int
	// Seed drives the generator; identical (Workload, Model, Capacity, N,
	// Seed) tuples produce identical sequences everywhere.
	Seed uint64
}

// Config configures a query engine.
type Config struct {
	// Source is the seeded arrival order (required).
	Source Source
	// Algorithm configures the §2/§3 instance each query replays; its Seed
	// must match the streaming engine's for exact answers to be
	// line-identical to it.
	Algorithm core.Config
	// Workers bounds concurrent query simulations (default GOMAXPROCS).
	Workers int
	// StreamDepth sizes Stream's pipeline buffers (default 256).
	StreamDepth int
}

// Query asks for the decision at one arrival position.
type Query struct {
	// Pos is the arrival position in [0, N).
	Pos int `json:"pos"`
	// Fidelity selects the replay layer (omitted/empty means exact).
	Fidelity Fidelity `json:"fidelity,omitempty"`
}

// Answer is the decision reconstructed for one query.
type Answer struct {
	// Pos echoes the queried position; it equals the ID the streaming
	// engine assigns the same arrival.
	Pos int
	// Accepted reports whether the arrival is admitted at position Pos.
	Accepted bool
	// Preempted lists the global positions of previously accepted arrivals
	// this decision evicts.
	Preempted []int
	// Replayed counts the arrivals simulated to produce the answer (the
	// query's local computation cost).
	Replayed int
	// Fidelity echoes the replay layer that produced the answer.
	Fidelity Fidelity
	// Err carries a per-query failure; an Answer with Err set has no other
	// meaningful fields beyond Pos.
	Err error
}

// DecisionErr returns the per-query failure, satisfying the generic
// service.Decision constraint.
func (a Answer) DecisionErr() error { return a.Err }

// Engine answers decision queries over one seeded arrival order. It
// implements service.Service[Query, Answer] (and the prevalidated Batcher
// fast path), so it plugs into the generic serving stack exactly like the
// streaming engines.
type Engine struct {
	cfg     Config
	ins     *problem.Instance
	workers int
	depth   int
	sema    chan struct{}
	gate    service.Gate

	requests atomic.Int64
	accepted atomic.Int64
	errs     atomic.Int64
	replayed atomic.Int64
}

var _ service.Service[Query, Answer] = (*Engine)(nil)
var _ service.Batcher[Query, Answer] = (*Engine)(nil)

// New builds a query engine: it generates the source sequence once (held
// immutable thereafter) and validates that the algorithm configuration can
// replay it.
func New(cfg Config) (*Engine, error) {
	ins, err := workload.BuildNamed(cfg.Source.Workload, cfg.Source.Model,
		cfg.Source.Capacity, cfg.Source.N, cfg.Source.Seed)
	if err != nil {
		return nil, err
	}
	if err := cfg.Algorithm.Validate(); err != nil {
		return nil, err
	}
	// Fail configuration mismatches (e.g. unweighted constants over a
	// non-unit cost model) at construction, not on the first query.
	if cfg.Algorithm.Unweighted {
		for pos, r := range ins.Requests {
			if r.Cost != 1 {
				return nil, fmt.Errorf("lca: unweighted algorithm over %q: position %d has cost %v (want unit costs)",
					cfg.Source.Workload, pos, r.Cost)
			}
		}
	}
	if _, err := core.NewRandomized(ins.Capacities, cfg.Algorithm); err != nil {
		return nil, err
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	depth := cfg.StreamDepth
	if depth <= 0 {
		depth = 256
	}
	return &Engine{
		cfg:     cfg,
		ins:     ins,
		workers: workers,
		depth:   depth,
		sema:    make(chan struct{}, workers),
	}, nil
}

// Source returns the arrival-order spec the engine serves.
func (e *Engine) Source() Source { return e.cfg.Source }

// Algorithm returns the per-query replay configuration.
func (e *Engine) Algorithm() core.Config { return e.cfg.Algorithm }

// Workers returns the concurrent-simulation bound.
func (e *Engine) Workers() int { return e.workers }

// Positions returns the number of queryable arrival positions (the source
// sequence length N).
func (e *Engine) Positions() int { return len(e.ins.Requests) }

// Instance exposes the generated source sequence for reference replays
// (experiments and tests). The caller must treat it as read-only.
func (e *Engine) Instance() *problem.Instance { return e.ins }

// Validate checks a query exactly the way Submit would.
func (e *Engine) Validate(q Query) error {
	if q.Pos < 0 || q.Pos >= len(e.ins.Requests) {
		return fmt.Errorf("lca: position %d out of range [0, %d)", q.Pos, len(e.ins.Requests))
	}
	if !q.Fidelity.Valid() {
		return fmt.Errorf("lca: unknown fidelity %d", q.Fidelity)
	}
	return nil
}

// account folds one computed answer into the engine's statistics.
func (e *Engine) account(a *Answer) {
	e.requests.Add(1)
	e.replayed.Add(int64(a.Replayed))
	if a.Err != nil {
		e.errs.Add(1)
		return
	}
	if a.Accepted {
		e.accepted.Add(1)
	}
}

// compute runs one query simulation under the worker semaphore and
// accounts it.
func (e *Engine) compute(q Query) Answer {
	e.sema <- struct{}{}
	a := e.answer(q)
	<-e.sema
	e.account(&a)
	return a
}

// Submit answers one query inline and blocks until it is decided. A
// per-query replay failure is returned as the error (mirroring the
// streaming engines' Submit).
func (e *Engine) Submit(ctx context.Context, q Query) (Answer, error) {
	if !e.gate.Enter() {
		return Answer{}, ErrClosed
	}
	defer e.gate.Exit()
	if err := e.Validate(q); err != nil {
		return Answer{}, err
	}
	if err := ctx.Err(); err != nil {
		return Answer{}, err
	}
	a := e.compute(q)
	return a, a.Err
}

// SubmitBatch answers a slice of queries, fanned out across the worker
// pool with answers in query order. Validation is atomic: an invalid query
// fails the whole batch before anything is computed; per-query replay
// failures are reported on the answers instead.
func (e *Engine) SubmitBatch(ctx context.Context, qs []Query) ([]Answer, error) {
	for i, q := range qs {
		if err := e.Validate(q); err != nil {
			return nil, fmt.Errorf("query %d: %w", i, err)
		}
	}
	return e.SubmitBatchPrevalidated(ctx, qs)
}

// SubmitBatchPrevalidated is SubmitBatch without the validation pass (the
// serving layer validates at the request boundary).
func (e *Engine) SubmitBatchPrevalidated(ctx context.Context, qs []Query) ([]Answer, error) {
	if len(qs) == 0 {
		return nil, nil
	}
	if !e.gate.Enter() {
		return nil, ErrClosed
	}
	defer e.gate.Exit()
	out := make([]Answer, len(qs))
	workers := e.workers
	if workers > len(qs) {
		workers = len(qs)
	}
	var (
		next      atomic.Int64
		wg        sync.WaitGroup
		cancelled atomic.Bool
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(qs) {
					return
				}
				if ctx.Err() != nil {
					cancelled.Store(true)
					return
				}
				out[i] = e.compute(qs[i])
			}
		}()
	}
	wg.Wait()
	if cancelled.Load() {
		return nil, ctx.Err()
	}
	return out, nil
}

// Stream opens an ordered, pipelined query stream: Send dispatches a query
// to the worker pool without waiting for earlier answers, Recv yields
// answers in send order.
func (e *Engine) Stream(ctx context.Context) (*service.Stream[Query, Answer], error) {
	if e.gate.Closed() {
		return nil, ErrClosed
	}
	return service.NewStream(ctx, e.depth, e.dispatch), nil
}

// dispatch fires one query onto the worker pool and returns the await for
// its answer. The computation (and its accounting) always completes even
// if the caller stops waiting — cancellation bounds the wait only.
func (e *Engine) dispatch(ctx context.Context, q Query) (service.Await[Answer], error) {
	if !e.gate.Enter() {
		return nil, ErrClosed
	}
	if err := e.Validate(q); err != nil {
		e.gate.Exit()
		return nil, err
	}
	ch := make(chan Answer, 1)
	go func() {
		defer e.gate.Exit()
		ch <- e.compute(q)
	}()
	return func(ctx context.Context) (Answer, error) {
		select {
		case a := <-ch:
			return a, nil
		case <-ctx.Done():
			// Prefer an answer that is already available; the computation
			// goroutine accounts itself either way.
			select {
			case a := <-ch:
				return a, nil
			default:
				return Answer{}, ctx.Err()
			}
		}
	}, nil
}

// Stats returns the uniform statistics snapshot. Objective is the
// cumulative number of replayed arrivals — the tier's local-computation
// cost; Shards reports the worker bound.
func (e *Engine) Stats() service.Stats {
	return service.Stats{
		Requests:  e.requests.Load(),
		Accepted:  e.accepted.Load(),
		Errors:    e.errs.Load(),
		Objective: float64(e.replayed.Load()),
		Shards:    e.workers,
	}
}

// Drain blocks until no queries are in flight or ctx is done.
func (e *Engine) Drain(ctx context.Context) error { return e.gate.Drain(ctx) }

// Close shuts the engine down: subsequent submissions fail with ErrClosed,
// in-flight queries finish, and statistics remain readable (and exact)
// afterwards. Close is idempotent.
func (e *Engine) Close() error {
	e.gate.Close(nil)
	return nil
}

// answer reconstructs the decision for one validated query on private
// state.
func (e *Engine) answer(q Query) Answer {
	a := Answer{Pos: q.Pos, Fidelity: q.Fidelity}
	switch q.Fidelity {
	case FidelityExact:
		e.replay(q.Pos+1, func(i int) int { return i }, &a)
	case FidelityNeighborhood:
		ps := e.component(q.Pos)
		e.replay(len(ps), func(i int) int { return ps[i] }, &a)
	default:
		a.Err = fmt.Errorf("lca: unknown fidelity %d", q.Fidelity)
	}
	return a
}

// replay offers k prefix arrivals — global position posAt(i) as local id i,
// ascending — to a fresh §3 instance and records the final offer's outcome
// in a, with preempted local ids mapped back to global positions.
func (e *Engine) replay(k int, posAt func(int) int, a *Answer) {
	alg, err := core.NewRandomized(e.ins.Capacities, e.cfg.Algorithm)
	if err != nil {
		a.Err = err
		return
	}
	for i := 0; i < k; i++ {
		pos := posAt(i)
		out, err := alg.Offer(i, e.ins.Requests[pos])
		if err != nil {
			a.Err = fmt.Errorf("lca: replay failed at position %d: %w", pos, err)
			return
		}
		if i == k-1 {
			a.Accepted = out.Accepted
			for _, local := range out.Preempted {
				a.Preempted = append(a.Preempted, posAt(local))
			}
		}
	}
	a.Replayed = k
}

// component returns the ascending positions of the prefix [0, pos] whose
// requests are edge-connected to position pos: a union-find over the edge
// set merges each prefix request's edges, and the component containing
// pos's edges is collected. Requests outside it share no capacity chain
// with pos, so the neighborhood replay drops them.
func (e *Engine) component(pos int) []int {
	parent := make([]int, len(e.ins.Capacities))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]] // path halving
			x = parent[x]
		}
		return x
	}
	for j := 0; j <= pos; j++ {
		edges := e.ins.Requests[j].Edges
		r0 := find(edges[0])
		for _, ed := range edges[1:] {
			parent[find(ed)] = r0
		}
	}
	root := find(e.ins.Requests[pos].Edges[0])
	ps := make([]int, 0, pos+1)
	for j := 0; j <= pos; j++ {
		if find(e.ins.Requests[j].Edges[0]) == root {
			ps = append(ps, j)
		}
	}
	return ps
}
