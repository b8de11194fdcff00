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

// --- E16: wire loopback — binary protocol fidelity and throughput --------
//
// E16 validates the binary wire protocol (DESIGN.md §11): the same
// overloaded workload as E14 is decided four ways — directly against the
// sharded engine, through the JSON serving path with one connection,
// through the binary path with one connection, and through the binary path
// with eight connections. With one connection the pipeline is FIFO end to
// end, so the JSON and binary decision streams must both match the direct
// engine line for line (ID, accepted, cross-shard, preempted) — the codec
// must not be able to change a decision; the experiment errors out on the
// first divergence. The eight-connection binary run measures the hot
// path's concurrent throughput and must reconcile exactly with the
// engine's accounting. Acceptance (see EXPERIMENTS.md §E16): both conns=1
// streams identical to direct, and every loopback competitive ratio
// within 2x of direct.

func init() {
	registry = append(registry,
		Experiment{"E16", "Wire loopback: binary protocol fidelity and throughput (§3 over the §11 codec)", runE16},
	)
}

// e16Scenario labels one way of serving the workload.
type e16Scenario struct {
	name  string
	conns int // 0 = direct engine, no server
	wire  bool
}

func runE16(cfg Config) ([]*Table, error) {
	scenarios := []e16Scenario{
		{name: "direct", conns: 0},
		{name: "json conns=1", conns: 1},
		{name: "wire conns=1", conns: 1, wire: true},
		{name: "wire conns=8", conns: 8, wire: true},
	}
	m := cfg.scaledInt(64, 16)
	const c = 4
	const shards = 4

	type e16Point struct {
		ok          bool
		ratio, thru float64
	}
	points := make([]e16Point, len(scenarios)*cfg.reps())
	var mu sync.Mutex
	// One work item per repetition (not per scenario): the identity checks
	// hold every served stream to the repetition's direct run.
	err := parallelEach(cfg.reps(), cfg.workers(), func(rep int) error {
		wr := rng.New(cfg.Seed ^ (uint64(rep+1) * 0xE16E16))
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
		engineFor := func() (*engine.Engine, error) {
			acfg := core.UnweightedConfig()
			acfg.Seed = cfg.Seed ^ (uint64(rep+1) * 2750159)
			return engine.New(ins.Capacities, engine.Config{Shards: shards, Algorithm: acfg})
		}

		// Direct reference: the sequential decision stream every served
		// one-connection stream must reproduce.
		eng, err := engineFor()
		if err != nil {
			return err
		}
		start := time.Now()
		direct, _, err := runDirect(eng, ins.Requests)
		if err != nil {
			return fmt.Errorf("E16: direct rep %d: %w", rep, err)
		}
		directElapsed := time.Since(start)
		directStats := eng.Snapshot()

		rec := func(si int, p e16Point) {
			mu.Lock()
			points[si*cfg.reps()+rep] = p
			mu.Unlock()
		}
		rec(0, e16Point{ok: true, ratio: directStats.RejectedCost / lb,
			thru: float64(directStats.Requests) / directElapsed.Seconds()})

		// Served scenarios: fresh identically seeded engine each, so every
		// path decides the same workload from the same initial state.
		for si := 1; si < len(scenarios); si++ {
			sc := scenarios[si]
			eng, err := engineFor()
			if err != nil {
				return err
			}
			if sc.conns == 1 {
				newClient := server.NewAdmissionClient
				if sc.wire {
					newClient = server.NewAdmissionWireClient
				}
				got, elapsed, err := servedConns1(server.Admission(eng), newClient, ins.Requests)
				eng.Close()
				if err == nil {
					// Identity gate: line for line equal to the direct run —
					// the codec must be decision-invisible.
					err = sameStream(got, direct, sameAdmission)
				}
				if err != nil {
					return fmt.Errorf("E16: %s rep %d: %w", sc.name, rep, err)
				}
				st := eng.Snapshot()
				rec(si, e16Point{ok: true, ratio: st.RejectedCost / lb, thru: float64(len(got)) / elapsed.Seconds()})
				continue
			}
			report, err := serveLoad(server.Admission(eng),
				server.LoadConfig[problem.Request]{Items: ins.Requests, Conns: sc.conns, Wire: sc.wire}, server.RunAdmissionLoad)
			eng.Close()
			if err != nil {
				return fmt.Errorf("E16: %s rep %d: %w", sc.name, rep, err)
			}
			// Reconciliation gate: the binary stream the clients saw must
			// match the engine's accounting exactly.
			st := eng.Snapshot()
			if report.Decided != st.Requests || report.Accepted != st.Accepted {
				return fmt.Errorf("E16: %s rep %d: client saw %d decided/%d accepted, engine %d/%d",
					sc.name, rep, report.Decided, report.Accepted, st.Requests, st.Accepted)
			}
			rec(si, e16Point{ok: true, ratio: st.RejectedCost / lb, thru: report.Throughput})
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	ratios := make([]*stats.Summary, len(scenarios))
	thrus := make([]*stats.Summary, len(scenarios))
	for si := range scenarios {
		ratios[si] = &stats.Summary{}
		thrus[si] = &stats.Summary{}
		for rep := 0; rep < cfg.reps(); rep++ {
			p := points[si*cfg.reps()+rep]
			if !p.ok {
				continue
			}
			ratios[si].Add(p.ratio)
			thrus[si].Add(p.thru)
		}
	}

	t := &Table{
		ID:      "E16",
		Title:   "Wire loopback: binary protocol fidelity and throughput (acserve §11 codec)",
		Columns: []string{"path", "throughput (dec/s)", "ratio (mean ± ci95)", "vs direct"},
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
		t.AddRow(sc.name,
			fmt.Sprintf("%.0f", thrus[i].Mean()),
			ratioCell(ratios[i]),
			fmt.Sprintf("%.2f", rel))
	}
	verdict := "PASS"
	if worst > 2 {
		verdict = "FAIL"
	}
	t.AddNote("direct = sequential Submit against the same 4-shard engine; json/wire = acserve on 127.0.0.1 over the named codec")
	t.AddNote("both conns=1 streams were compared line by line (id, accepted, cross-shard, preempted) and are identical to direct")
	t.AddNote("acceptance: loopback ratio within 2x of direct — worst observed %.2fx: %s; wire conns=8 accounting reconciled exactly", worst, verdict)
	return []*Table{t}, nil
}
