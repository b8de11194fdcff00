package engine

import (
	"context"
	"fmt"

	"admission/internal/core"
	"admission/internal/graph"
	"admission/internal/service"
)

// This file is the engine's face toward the cluster tier (DESIGN.md §14):
// the two-phase reserve/commit protocol that internal/engine runs between
// its own shards over channels, exposed as first-class submissions so a
// router process can run the same protocol between whole engines over RPC.
// Each call consumes one global ID, exactly like Submit, so a backend's
// decision stream stays contiguous and WAL-appendable (internal/wal
// enforces sequence contiguity).
//
// Counter semantics: every cluster operation counts one request. A
// reservation follows the in-process cross-shard path (crossShard++, and
// accepted++/crossAccepted++ when granted, at zero cost); commits and
// releases only move capacity between ledgers and count nothing beyond the
// request itself. All of it is a pure function of the submitted operation
// stream, which is what makes StateDigest reproducible under WAL replay.

// SubmitReserve tentatively consumes one capacity unit per listed global
// edge (phase 1 of the cluster's two-phase protocol). It is atomic within
// the engine: either every edge had a free slot and the whole reservation
// is granted (Decision.Accepted true), or nothing is held. A granted
// reservation is finalized by SubmitCommit or returned by SubmitRelease.
// An empty edge list is a deterministic refused no-op, so protocol-level
// rejections still consume their place in the decision stream.
func (e *Engine) SubmitReserve(ctx context.Context, edges []int) (Decision, error) {
	if !e.rt.Enter() {
		return Decision{}, ErrClosed
	}
	defer e.rt.Exit()
	if err := e.ValidateClusterEdges(edges); err != nil {
		return Decision{}, err
	}
	id := int(e.nextID.Add(1) - 1)
	if len(edges) == 0 {
		e.requests.Add(1)
		e.crossShard.Add(1)
		return Decision{ID: id, CrossShard: true}, nil
	}
	return e.submitCross(ctx, id, e.groupByShard(edges), 0)
}

// SubmitCommit makes a granted reservation permanent: each listed edge's
// reserved unit moves to the committed ledger, where no later release can
// touch it (exactly the permanence the §4 reduction gives a shrunk
// capacity unit). The edges must currently hold reservations; committing
// an unreserved edge is an engine error. An empty edge list is a
// deterministic no-op decision (Accepted false) consuming one ID.
func (e *Engine) SubmitCommit(ctx context.Context, edges []int) (Decision, error) {
	return e.settle(ctx, opCommit, edges)
}

// SubmitRelease returns a granted reservation: each listed edge's reserved
// unit is released and the shrunk capacity grown back (phase 2 abort). The
// edges must currently hold reservations. An empty edge list is a
// deterministic no-op decision (Accepted false) consuming one ID.
func (e *Engine) SubmitRelease(ctx context.Context, edges []int) (Decision, error) {
	return e.settle(ctx, opRelease, edges)
}

// settle runs the shared phase-2 shape of commit and release: consume an
// ID, then apply the ledger move on every involved shard. The per-shard
// calls are context-free on purpose — once phase 2 starts it must run to
// completion to keep the reservation ledgers consistent.
func (e *Engine) settle(ctx context.Context, kind opKind, edges []int) (Decision, error) {
	if !e.rt.Enter() {
		return Decision{}, ErrClosed
	}
	defer e.rt.Exit()
	if err := e.ValidateClusterEdges(edges); err != nil {
		return Decision{}, err
	}
	if err := ctx.Err(); err != nil {
		return Decision{}, err
	}
	id := int(e.nextID.Add(1) - 1)
	e.requests.Add(1)
	if len(edges) == 0 {
		return Decision{ID: id, CrossShard: true}, nil
	}
	for _, g := range e.groupByShard(edges) {
		if rep := e.rt.Call(g.shard, op{kind: kind, edges: g.edges}); rep.err != nil {
			e.errs.Add(1)
			return Decision{}, rep.err
		}
	}
	return Decision{ID: id, Accepted: true, CrossShard: true}, nil
}

// ValidateClusterEdges checks a cluster operation's edge list: every edge
// in range, no duplicates. Unlike problem.Request.Validate an empty list
// is allowed — the protocol uses it for deterministic no-op decisions.
func (e *Engine) ValidateClusterEdges(edges []int) error {
	seen := map[int]bool{}
	for _, ge := range edges {
		if ge < 0 || ge >= len(e.caps) {
			return fmt.Errorf("engine: cluster op references edge %d, have %d edges", ge, len(e.caps))
		}
		if seen[ge] {
			return fmt.Errorf("engine: cluster op lists edge %d twice", ge)
		}
		seen[ge] = true
	}
	return nil
}

// ConfigFingerprint computes, without building an engine, the Fingerprint
// an engine constructed from exactly these capacities and Config would
// report. The cluster router uses it to predict each backend's identity
// from the shared partition and refuse to route to a backend running a
// different configuration (the same guard wal.Open applies to logs).
func ConfigFingerprint(capacities []int, cfg Config) (string, error) {
	if len(capacities) == 0 {
		return "", fmt.Errorf("engine: no edges")
	}
	if err := cfg.Algorithm.Validate(); err != nil {
		return "", err
	}
	parts, err := graph.ResolvePartition(cfg.Partition, len(capacities), cfg.Shards)
	if err != nil {
		return "", err
	}
	edgeShard := make([]int32, len(capacities))
	for si, part := range parts {
		for _, ge := range part {
			edgeShard[ge] = int32(si)
		}
	}
	return fingerprintOf(capacities, len(parts), edgeShard, cfg.Algorithm), nil
}

// fingerprintOf is the shared digest behind Fingerprint and
// ConfigFingerprint.
func fingerprintOf(caps []int, numShards int, edgeShard []int32, cfg core.Config) string {
	h := service.NewHash()
	h.Int(len(caps))
	for _, c := range caps {
		h.Int(c)
	}
	h.Int(numShards)
	for _, s := range edgeShard {
		h.Int(int(s))
	}
	h.Config(cfg)
	return fmt.Sprintf("admission/v1 m=%d k=%d seed=%d cfg=%016x", len(caps), numShards, cfg.Seed, h.Sum())
}
