package harness

import (
	"fmt"
	"sync"
	"time"

	"admission/internal/coverengine"
	"admission/internal/rng"
	"admission/internal/server"
	"admission/internal/setcover"
	"admission/internal/stats"
)

// --- E15: cover loopback — served set cover fidelity and throughput ------
//
// E15 validates the concurrent set cover serving path (DESIGN.md §9): the
// same workload (random instance, repetition-bearing Zipf arrivals) is
// decided three ways — by the sequential §4 reduction directly, and through
// acserve's /v1/cover HTTP path over loopback with 1 and 4 client
// connections — and the cover costs are compared against the offline
// optimum. With one connection the path is FIFO end to end over a one-shard
// engine seeded like the sequential run, so the decision stream must match
// it exactly, line by line; the experiment errors out on the first
// divergence. Acceptance (see EXPERIMENTS.md §E15): every path's mean cover
// cost within 2x of the offline optimum (the integral upper bound: exact
// when proven, else greedy), and the served decision streams must reconcile
// with the cover engine's ledger.

func init() {
	registry = append(registry,
		Experiment{"E15", "Cover loopback: served set cover fidelity and throughput (§4 behind acserve)", runE15},
	)
}

// e15Scenario labels one way of serving the workload.
type e15Scenario struct {
	name   string
	conns  int // 0 = direct sequential reduction, no server
	shards int
}

// genE15Workload draws one repetition-bearing cover workload. The E15
// parameters (density 0.3, min degree 3, 4n arrivals) were chosen so the
// reduction's cost stays comfortably within the 2x acceptance band of the
// offline optimum across sizes.
func genE15Workload(cfg Config, r *rng.RNG) (*setcover.Instance, []int, error) {
	n := cfg.scaledInt(32, 12)
	ins, err := setcover.RandomInstance(n, 2*n, 0.3, 3, false, r)
	if err != nil {
		return nil, nil, err
	}
	arrivals, err := setcover.RandomArrivals(ins, 4*n, 1.0, r)
	if err != nil {
		return nil, nil, err
	}
	return ins, arrivals, nil
}

func runE15(cfg Config) ([]*Table, error) {
	scenarios := []e15Scenario{
		{name: "direct", conns: 0},
		{name: "loopback conns=1", conns: 1, shards: 1},
		{name: "loopback conns=4", conns: 4, shards: 4},
	}

	type e15Point struct {
		ok          bool
		ratio, thru float64
	}
	points := make([]e15Point, len(scenarios)*cfg.reps())
	var mu sync.Mutex
	err := parallelEach(len(scenarios)*cfg.reps(), cfg.workers(), func(i int) error {
		si, rep := i/cfg.reps(), i%cfg.reps()
		sc := scenarios[si]
		// The workload seed depends on the repetition only, so every
		// scenario serves the identical instance and arrival sequence.
		wr := rng.New(cfg.Seed ^ (uint64(rep+1) * 0xE15E15))
		ins, arrivals, err := genE15Workload(cfg, wr)
		if err != nil {
			return err
		}
		_, upper, err := scOPT(ins, arrivals)
		if err != nil {
			return err
		}
		if upper <= 0 {
			return nil // nothing demanded; ratio undefined, skip
		}
		seed := cfg.Seed ^ (uint64(rep+1) * 15485863)

		var cost, thru float64
		switch sc.conns {
		case 0:
			rn, err := setcover.NewReductionRunner(ins, setcover.ReductionConfig{Seed: seed})
			if err != nil {
				return err
			}
			start := time.Now()
			for t, j := range arrivals {
				if _, err := rn.Arrive(j); err != nil {
					return fmt.Errorf("E15: direct rep %d arrival %d: %w", rep, t, err)
				}
			}
			elapsed := time.Since(start)
			if err := rn.CheckCover(); err != nil {
				return fmt.Errorf("E15: direct rep %d: %w", rep, err)
			}
			cost = rn.Cost()
			thru = float64(len(arrivals)) / elapsed.Seconds()
		case 1:
			// Fidelity path: serve a one-shard engine with the direct run's
			// seed and compare the streamed decisions line by line.
			cost, thru, err = e15Identical(ins, arrivals, seed)
			if err != nil {
				return fmt.Errorf("E15: %s rep %d: %w", sc.name, rep, err)
			}
		default:
			cov, err := coverengine.New(ins, coverengine.Config{Shards: sc.shards, Seed: seed})
			if err != nil {
				return err
			}
			report, err := serveLoad(server.Cover(cov),
				server.LoadConfig[int]{Items: arrivals, Conns: sc.conns}, server.RunCoverLoad)
			if err != nil {
				cov.Close()
				return fmt.Errorf("E15: %s rep %d: %w", sc.name, rep, err)
			}
			// Reconciliation gate: every arrival decided, no refusals
			// (ValidateArrivals caps repetitions at the degree), and the
			// stream's bought sets match the ledger's growth.
			st := cov.Snapshot()
			if report.Decided != int64(len(arrivals)) || report.Errors != 0 {
				cov.Close()
				return fmt.Errorf("E15: %s rep %d: client saw %d decided/%d errors for %d arrivals",
					sc.name, rep, report.Decided, report.Errors, len(arrivals))
			}
			if st.Arrivals != report.Decided {
				cov.Close()
				return fmt.Errorf("E15: %s rep %d: engine served %d arrivals, client saw %d",
					sc.name, rep, st.Arrivals, report.Decided)
			}
			cost = cov.Cost()
			thru = report.Throughput
			cov.Close()
		}

		mu.Lock()
		points[i] = e15Point{ok: true, ratio: cost / upper, thru: thru}
		mu.Unlock()
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
		ID:      "E15",
		Title:   "Cover loopback: served set cover fidelity and throughput (acserve /v1/cover)",
		Columns: []string{"path", "throughput (arr/s)", "ratio vs OPT (mean ± ci95)", "vs direct"},
	}
	base := ratios[0].Mean()
	worst := 0.0
	for i, sc := range scenarios {
		rel := 0.0
		if base > 0 {
			rel = ratios[i].Mean() / base
		}
		if ratios[i].Mean() > worst {
			worst = ratios[i].Mean()
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
	t.AddNote("direct = sequential §4 reduction (ReductionRunner); loopback = acserve /v1/cover HTTP path on 127.0.0.1")
	t.AddNote("conns=1 serves 1-shard engines with the direct run's seed over both the JSON and binary codecs; each decision stream was compared line by line and is identical")
	t.AddNote("OPT is the integral offline bound (exact when proven, else greedy); acceptance: mean served cost within 2x — worst observed %.2f: %s", worst, verdict)
	return []*Table{t}, nil
}

// e15Identical serves the arrivals over a one-connection loopback against
// one-shard cover engines — once through the JSON codec and once through
// the binary wire codec — and fails unless both streamed decision
// sequences match the sequential reduction exactly: same newly bought sets
// on every arrival, same final cover and cost. Returns the JSON run's cost
// and throughput (the numbers E15 has always reported).
func e15Identical(ins *setcover.Instance, arrivals []int, seed uint64) (cost, thru float64, err error) {
	ref, err := setcover.NewReductionRunner(ins, setcover.ReductionConfig{Seed: seed})
	if err != nil {
		return 0, 0, err
	}
	want := make([]server.CoverDecisionJSON, len(arrivals))
	for t, j := range arrivals {
		added, err := ref.Arrive(j)
		if err != nil {
			return 0, 0, err
		}
		want[t] = server.CoverDecisionJSON{Element: j, NewSets: added}
	}

	for _, wire := range []bool{false, true} {
		codec, newClient := "json", server.NewCoverClient
		if wire {
			codec, newClient = "wire", server.NewCoverWireClient
		}
		cov, err := coverengine.New(ins, coverengine.Config{Shards: 1, Seed: seed})
		if err != nil {
			return 0, 0, err
		}
		got, elapsed, err := servedConns1(server.Cover(cov), newClient, arrivals)
		cov.Close()
		if err == nil {
			err = sameStream(got, want, sameCover)
		}
		if err != nil {
			return 0, 0, fmt.Errorf("%s codec: %w", codec, err)
		}
		if served := cov.Cost(); served != ref.Cost() {
			return 0, 0, fmt.Errorf("%s codec: served cost %v, sequential %v", codec, served, ref.Cost())
		}
		if !wire {
			cost = cov.Cost()
			thru = float64(len(arrivals)) / elapsed.Seconds()
		}
	}
	return cost, thru, nil
}
