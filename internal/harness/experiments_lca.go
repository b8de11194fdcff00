package harness

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"admission/internal/core"
	"admission/internal/engine"
	"admission/internal/lca"
	"admission/internal/server"
	"admission/internal/stats"
	"admission/internal/workload"
)

// --- E18: local-computation query tier — streaming consistency -----------
//
// E18 validates the query tier (internal/lca, DESIGN.md §13): the same
// seeded arrival order is decided four ways — streamed sequentially
// through a 1-shard engine (the reference), answered position by position
// by the lca engine at exact fidelity, and served through /v1/query with
// one connection over both codecs. All four decision streams must be
// line-identical (position/ID, accepted, preempted) at every position: a
// stateless prefix replay must not be able to disagree with the stateful
// streaming run it reconstructs. The worker sweep then measures the
// tier's horizontal scaling — queries are independent simulations, so
// queries/s must grow with the worker bound, which a shared-ledger design
// structurally cannot do. Acceptance (see EXPERIMENTS.md §E18): zero
// line divergences in every repetition, and workers=8 throughput ≥ 2x
// workers=1.

func init() {
	registry = append(registry,
		Experiment{"E18", "Local-computation query tier: consistency with the streaming engine and worker scaling (§3 over DESIGN.md §13)", runE18},
	)
}

func runE18(cfg Config) ([]*Table, error) {
	n := cfg.scaledInt(192, 48)
	workerSweep := []int{1, 2, 4, 8}

	type e18Point struct {
		ok    bool
		thrus []float64 // queries/s per workerSweep entry
	}
	points := make([]e18Point, cfg.reps())
	var mu sync.Mutex
	err := parallelEach(cfg.reps(), cfg.workers(), func(rep int) error {
		alg := core.DefaultConfig()
		alg.Seed = cfg.Seed ^ (uint64(rep+1) * 0xE18E18)
		src := lca.Source{
			Workload: "random",
			Model:    workload.CostUniform,
			Capacity: 4,
			N:        n,
			Seed:     cfg.Seed ^ (uint64(rep+1) * 7477),
		}
		qeng, err := lca.New(lca.Config{Source: src, Algorithm: alg, Workers: 4})
		if err != nil {
			return err
		}
		defer qeng.Close()
		ins := qeng.Instance()

		// Streaming reference: the same arrival order through a 1-shard
		// engine under the same algorithm seed — the decision stream every
		// exact query answer must reproduce.
		seng, err := engine.New(ins.Capacities, engine.Config{Shards: 1, Algorithm: alg})
		if err != nil {
			return err
		}
		stream, _, err := runDirect(seng, ins.Requests)
		if err != nil {
			return fmt.Errorf("E18: streaming reference rep %d: %w", rep, err)
		}
		direct := make([]server.QueryDecisionJSON, len(stream))
		for t, d := range stream {
			direct[t] = server.QueryDecisionJSON{Pos: d.ID, Accepted: d.Accepted, Preempted: d.Preempted}
		}

		qs := make([]lca.Query, len(ins.Requests))
		for i := range qs {
			qs[i] = lca.Query{Pos: i}
		}

		// Identity gate 1: local exact answers at every position.
		answers, err := qeng.SubmitBatch(context.Background(), qs)
		if err != nil {
			return err
		}
		local := make([]server.QueryDecisionJSON, len(answers))
		for t, a := range answers {
			local[t] = server.QueryDecisionJSON{Pos: a.Pos, Accepted: a.Accepted, Preempted: a.Preempted}
			if a.Err != nil {
				local[t].Error = a.Err.Error()
			}
		}
		if err := sameStream(local, direct, sameQuery); err != nil {
			return fmt.Errorf("E18: local rep %d: %w", rep, err)
		}

		// Identity gate 2: the served conns=1 streams over both codecs.
		for _, wire := range []bool{false, true} {
			codec, newClient := "json", server.NewQueryClient
			if wire {
				codec, newClient = "wire", server.NewQueryWireClient
			}
			got, _, err := servedConns1(server.Query(qeng), newClient, qs)
			if err == nil {
				err = sameStream(got, direct, sameQuery)
			}
			if err != nil {
				return fmt.Errorf("E18: %s conns=1 rep %d: %w", codec, rep, err)
			}
		}

		// Worker sweep: fresh engines with growing worker bounds answer the
		// same query set; throughput is batch wall clock.
		thrus := make([]float64, len(workerSweep))
		for wi, workers := range workerSweep {
			weng, err := lca.New(lca.Config{Source: src, Algorithm: alg, Workers: workers})
			if err != nil {
				return err
			}
			start := time.Now()
			if _, err := weng.SubmitBatch(context.Background(), qs); err != nil {
				weng.Close()
				return err
			}
			thrus[wi] = float64(len(qs)) / time.Since(start).Seconds()
			weng.Close()
		}
		mu.Lock()
		points[rep] = e18Point{ok: true, thrus: thrus}
		mu.Unlock()
		return nil
	})
	if err != nil {
		return nil, err
	}

	sums := make([]*stats.Summary, len(workerSweep))
	for wi := range workerSweep {
		sums[wi] = &stats.Summary{}
		for rep := 0; rep < cfg.reps(); rep++ {
			if points[rep].ok {
				sums[wi].Add(points[rep].thrus[wi])
			}
		}
	}

	t := &Table{
		ID:      "E18",
		Title:   "Local-computation query tier: streaming consistency and worker scaling (DESIGN.md §13)",
		Columns: []string{"workers", "throughput (queries/s)", "speedup vs workers=1"},
	}
	base := sums[0].Mean()
	var speedup8 float64
	for wi, workers := range workerSweep {
		rel := 0.0
		if base > 0 {
			rel = sums[wi].Mean() / base
		}
		if workers == 8 {
			speedup8 = rel
		}
		t.AddRow(fmt.Sprintf("%d", workers),
			fmt.Sprintf("%.0f", sums[wi].Mean()),
			fmt.Sprintf("%.2fx", rel))
	}
	verdict := "PASS"
	if speedup8 < 2 {
		verdict = "FAIL"
	}
	t.AddNote("identity: exact answers at all %d positions line-identical to the 1-shard streaming engine, locally and served over json+wire conns=1, in every repetition", n)
	t.AddNote("acceptance: workers=8 ≥ 2x workers=1 on the same query set — observed %.2fx on a GOMAXPROCS=%d host: %s", speedup8, runtime.GOMAXPROCS(0), verdict)
	t.AddNote("queries are independent prefix replays (no shared ledger), so the sweep measures the tier's horizontal-scaling claim directly")
	return []*Table{t}, nil
}
