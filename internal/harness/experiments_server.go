package harness

import (
	"fmt"
	"sync"
	"time"

	"admission/internal/core"
	"admission/internal/engine"
	"admission/internal/opt"
	"admission/internal/problem"
	"admission/internal/rng"
	"admission/internal/server"
	"admission/internal/stats"
	"admission/internal/workload"
)

// --- E14: server loopback — serving-layer fidelity and throughput --------
//
// E14 validates the network-facing admission service (DESIGN.md §7): the
// same overloaded workload as E11 is decided three ways — directly against
// the sharded engine, and through acserve's HTTP batching pipeline over
// loopback with 1 and 4 client connections — and the measured competitive
// ratios are compared. With one connection the pipeline is FIFO end to
// end, so the ratio matches the direct engine's (E14 compares counts, not
// streams: E16's json conns=1 row gates line identity on this same path);
// with concurrent connections arrival order varies and the ratio may
// drift. Acceptance (see EXPERIMENTS.md §E14): every loopback
// ratio within 2x of direct, and the server's decision accounting must
// reconcile exactly with the engine's (accepted and decided counts).

func init() {
	registry = append(registry,
		Experiment{"E14", "Server loopback: serving-layer fidelity and throughput (§3 behind acserve)", runE14},
	)
}

// e14Scenario labels one way of serving the workload.
type e14Scenario struct {
	name  string
	conns int // 0 = direct engine, no server
}

func runE14(cfg Config) ([]*Table, error) {
	scenarios := []e14Scenario{
		{name: "direct", conns: 0},
		{name: "loopback conns=1", conns: 1},
		{name: "loopback conns=4", conns: 4},
	}
	m := cfg.scaledInt(64, 16)
	const c = 4
	const shards = 4

	// Results land in per-(scenario, rep) slots and are folded into the
	// summaries in fixed order afterwards, so the rendered table is
	// bit-identical regardless of worker scheduling (Summary.Add is a
	// streaming-moment update and hence order-sensitive in the last bits).
	type e14Point struct {
		ok               bool
		ratio, thru, p99 float64
	}
	points := make([]e14Point, len(scenarios)*cfg.reps())
	var mu sync.Mutex
	err := parallelEach(len(scenarios)*cfg.reps(), cfg.workers(), func(i int) error {
		si, rep := i/cfg.reps(), i%cfg.reps()
		sc := scenarios[si]
		// The workload seed depends on the repetition only, so every
		// scenario serves the identical request sequence.
		wr := rng.New(cfg.Seed ^ (uint64(rep+1) * 0xE14E14))
		_, ins, err := genOverloadedGraph(m, c, workload.CostUnit, wr)
		if err != nil {
			return err
		}
		lb, err := opt.BestLowerBound(ins)
		if err != nil {
			return err
		}
		if lb <= 0 {
			return nil // feasible draw; ratio undefined, skip
		}
		acfg := core.UnweightedConfig()
		acfg.Seed = cfg.Seed ^ (uint64(rep+1) * 104729)
		eng, err := engine.New(ins.Capacities, engine.Config{Shards: shards, Algorithm: acfg})
		if err != nil {
			return err
		}

		var rejected float64
		var thru, p99ms float64
		if sc.conns == 0 {
			start := time.Now()
			if _, _, err := runDirect(eng, ins.Requests); err != nil {
				return fmt.Errorf("E14: %s rep %d: %w", sc.name, rep, err)
			}
			elapsed := time.Since(start)
			st := eng.Snapshot()
			rejected = st.RejectedCost
			thru = float64(st.Requests) / elapsed.Seconds()
		} else {
			report, err := serveLoad(server.Admission(eng),
				server.LoadConfig[problem.Request]{Items: ins.Requests, Conns: sc.conns}, server.RunAdmissionLoad)
			eng.Close()
			if err != nil {
				return fmt.Errorf("E14: %s rep %d: %w", sc.name, rep, err)
			}
			// Reconciliation gate: the decision stream the client saw must
			// match the engine's accounting exactly.
			st := eng.Snapshot()
			if report.Decided != st.Requests || report.Accepted != st.Accepted {
				return fmt.Errorf("E14: %s rep %d: client saw %d decided/%d accepted, engine %d/%d",
					sc.name, rep, report.Decided, report.Accepted, st.Requests, st.Accepted)
			}
			rejected = st.RejectedCost
			thru = report.Throughput
			p99ms = float64(report.LatencyP99) / float64(time.Millisecond)
		}

		mu.Lock()
		points[i] = e14Point{ok: true, ratio: rejected / lb, thru: thru, p99: p99ms}
		mu.Unlock()
		return nil
	})
	if err != nil {
		return nil, err
	}

	ratios := make([]*stats.Summary, len(scenarios))
	thrus := make([]*stats.Summary, len(scenarios))
	p99s := make([]*stats.Summary, len(scenarios))
	for si := range scenarios {
		ratios[si] = &stats.Summary{}
		thrus[si] = &stats.Summary{}
		p99s[si] = &stats.Summary{}
		for rep := 0; rep < cfg.reps(); rep++ {
			p := points[si*cfg.reps()+rep]
			if !p.ok {
				continue // feasible draw, skipped
			}
			ratios[si].Add(p.ratio)
			thrus[si].Add(p.thru)
			if scenarios[si].conns > 0 {
				p99s[si].Add(p.p99)
			}
		}
	}

	t := &Table{
		ID:      "E14",
		Title:   "Server loopback: serving-layer fidelity and throughput (acserve pipeline)",
		Columns: []string{"path", "throughput (dec/s)", "p99 batch (ms)", "ratio (mean ± ci95)", "vs direct"},
	}
	base := ratios[0].Mean()
	worst := 0.0
	for i, sc := range scenarios {
		rel := 0.0
		if base > 0 {
			rel = ratios[i].Mean() / base
		}
		if sc.conns > 0 && rel > worst {
			worst = rel
		}
		p99cell := "—"
		if sc.conns > 0 {
			p99cell = fmt.Sprintf("%.1f", p99s[i].Mean())
		}
		t.AddRow(sc.name,
			fmt.Sprintf("%.0f", thrus[i].Mean()),
			p99cell,
			ratioCell(ratios[i]),
			fmt.Sprintf("%.2f", rel))
	}
	verdict := "PASS"
	if worst > 2 {
		verdict = "FAIL"
	}
	t.AddNote("direct = sequential Submit against the same 4-shard engine; loopback = acserve HTTP batching pipeline on 127.0.0.1")
	t.AddNote("conns=1 is FIFO end to end (E16's json conns=1 row gates its line identity with direct on this path); conns=4 reorders arrivals")
	t.AddNote("acceptance: loopback ratio within 2x of direct — worst observed %.2fx: %s; client/engine decision accounting reconciled exactly", worst, verdict)
	return []*Table{t}, nil
}
