// Package service defines the one serving contract every online workload
// in this repository is exposed through (DESIGN.md §10): a generic
// Service[Req, Dec] with context-aware single, batched and streamed
// submission, uniform statistics, and a uniform drain/close lifecycle.
//
// The admission engine (internal/engine, §§2–3 of the paper) and the set
// cover engine (internal/coverengine, §§4–5) both implement Service; the
// HTTP layer (internal/server), the client, and the load generator are
// written once against this contract, so a new workload plugs into the
// whole serving stack by implementing the interface — it does not fork the
// server, client or loadgen. The view matches the local-computation-
// algorithms reading of the paper's framework: every online algorithm is a
// query→decision oracle, and the serving question (batching, pipelining,
// cancellation, observability) is the same for all of them.
//
// Below the contract the same question is answered once more: both
// streaming engines run on one shard runtime (Shards — event loops,
// pooled replies, cancellation hand-off, snapshots) behind one lifecycle
// gate (Gate), which the query tier shares.
//
// Concurrency contract: a Service's Submit, SubmitBatch, Stream, Validate
// and Stats are safe for concurrent use by any number of goroutines.
// Context cancellation is honoured at blocking boundaries (enqueueing into
// a full shard queue, waiting for a decision); once an operation has been
// enqueued its decision is still made and accounted — cancellation bounds
// the caller's wait, never the engine's bookkeeping.
package service

import "context"

// Decision is the constraint every served decision type satisfies: a
// decision can carry a per-item failure (e.g. a saturated cover element or
// a rare engine fault) that poisons only its own item, not the batch.
type Decision interface {
	// DecisionErr returns the per-item failure carried by the decision, or
	// nil when the item was decided normally.
	DecisionErr() error
}

// Stats is the uniform statistics snapshot every Service exposes. It
// carries the cross-workload common core; workload-specific detail (per
// -edge loads, chosen sets, ...) stays on the concrete engine's Snapshot.
type Stats struct {
	// Requests counts submissions dispatched to the service.
	Requests int64
	// Accepted counts submissions that succeeded in the workload's own
	// sense: admitted requests for admission control, served element
	// arrivals for set cover.
	Accepted int64
	// Errors counts submissions refused with a per-item failure.
	Errors int64
	// Objective is the workload's running objective: rejected cost for
	// admission control, total cover cost for set cover.
	Objective float64
	// Shards is the number of event-loop shards serving the workload.
	Shards int
}

// Service is the generic serving contract (one workload behind one
// query→decision oracle). Req is the workload's request type (a
// problem.Request for admission, an element id for set cover); Dec is its
// decision type.
type Service[Req any, Dec Decision] interface {
	// Submit serves one request and blocks until it is decided or ctx is
	// done. A ctx error means the caller stopped waiting; the request may
	// still be decided and accounted if it had already been enqueued.
	Submit(ctx context.Context, req Req) (Dec, error)
	// SubmitBatch serves a slice of requests in order, pipelined through
	// the service's shards, and returns one decision per request in the
	// same order. Validation is atomic: an invalid item fails the whole
	// batch before anything is dispatched. Per-item serving failures are
	// reported on the decision (DecisionErr), not as the batch error.
	SubmitBatch(ctx context.Context, reqs []Req) ([]Dec, error)
	// Stream opens an ordered, pipelined submission stream: Send dispatches
	// without waiting for earlier decisions, Recv yields decisions in send
	// order. The stream is bounded by the service's queue depth.
	Stream(ctx context.Context) (*Stream[Req, Dec], error)
	// Validate checks a request exactly the way Submit would, so batching
	// callers (the HTTP layer) can reject malformed items up front.
	Validate(req Req) error
	// Stats returns the uniform statistics snapshot.
	Stats() Stats
	// Drain blocks until no submissions are in flight or ctx is done. It
	// does not stop new submissions; callers quiesce traffic first.
	Drain(ctx context.Context) error
	// Close shuts the service down: subsequent submissions fail, in-flight
	// ones finish, and statistics remain readable (and exact) afterwards.
	// Close is idempotent.
	Close() error
}

// Batcher is an optional fast path a Service may implement: SubmitBatch
// minus the per-item validation pass, for callers that have already run
// Validate on every item (the HTTP layer validates at the request boundary
// and would otherwise pay the same scan twice per item). Submitting an
// unvalidated request through it is undefined behaviour.
type Batcher[Req any, Dec Decision] interface {
	// SubmitBatchPrevalidated is SubmitBatch without re-validating items.
	SubmitBatchPrevalidated(ctx context.Context, reqs []Req) ([]Dec, error)
}

// SubmitPrevalidated dispatches a batch through the service's prevalidated
// fast path when it has one, falling back to SubmitBatch otherwise.
func SubmitPrevalidated[Req any, Dec Decision](ctx context.Context, svc Service[Req, Dec], reqs []Req) ([]Dec, error) {
	if b, ok := svc.(Batcher[Req, Dec]); ok {
		return b.SubmitBatchPrevalidated(ctx, reqs)
	}
	return svc.SubmitBatch(ctx, reqs)
}
