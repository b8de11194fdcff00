package harness

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"strings"
	"sync"

	"admission/internal/core"
	"admission/internal/engine"
	"admission/internal/ops"
	"admission/internal/ops/scenario"
	"admission/internal/problem"
	"admission/internal/server"
)

// --- E20: live operations — scripted churn under the admin control plane -
//
// E20 validates the live-operations subsystem (internal/ops, DESIGN.md
// §15) end to end: an in-process acserve instance with the admin control
// plane mounted is driven through the flash-crowd churn scenario — the
// control plane grows every edge mid-crowd, then drains the extra
// capacity back out with a preempting shrink — while the ops scraper
// polls the metrics and occupancy surfaces every tick. Three properties
// gate the run:
//
//  1. Validity: at every scraped instant the engine-wide load is within
//     the engine-wide capacity (a resize never yields an over-committed
//     decision), and after the run the driver's client-side ledger of
//     accepted-minus-preempted requests reconciles EXACTLY, edge by
//     edge, with the server's occupancy view — including the preemptions
//     forced by the drain.
//  2. Visibility: the scraped capacity series shows the resize — the
//     pre-grow level, the grown peak, and the post-drain level are all
//     present in the ring.
//  3. Authority: without (or with a wrong) bearer token every admin
//     route answers 401 and mutates nothing — capacity, pause state and
//     the submission path are unchanged afterwards.
//
// Acceptance (see EXPERIMENTS.md §E20): every repetition reconciles
// exactly, shows the resize in the series, and rejects unauthenticated
// admin requests without side effects; any violation fails the
// experiment (and CI runs it under -race).

func init() {
	registry = append(registry,
		Experiment{"E20", "Live operations: admin control plane, churn scenarios, scraped series (DESIGN.md §15)", runE20},
	)
}

// e20Token is the admin bearer token the experiment's servers mount.
const e20Token = "e20-ops-token"

// e20Run is one repetition's measurements.
type e20Run struct {
	submitted, accepted, preempted int
	grown, shrunk                  int
	scrapes                        int
	capLevels                      []float64 // distinct capacity_total levels, in order
}

func runE20(cfg Config) ([]*Table, error) {
	m := cfg.scaledInt(16, 8)
	const c, shards = 4, 2

	runs := make([]e20Run, cfg.reps())
	var mu sync.Mutex
	err := parallelEach(cfg.reps(), cfg.workers(), func(rep int) error {
		run, err := e20Churn(cfg.Seed^(uint64(rep+1)*0xE20E20), m, c, shards)
		if err != nil {
			return fmt.Errorf("E20 rep %d: %w", rep, err)
		}
		mu.Lock()
		runs[rep] = run
		mu.Unlock()
		return nil
	})
	if err != nil {
		return nil, err
	}
	// The authority leg needs no repetitions: it is a pure protocol check.
	if err := e20Auth(m, c, shards); err != nil {
		return nil, fmt.Errorf("E20 auth leg: %w", err)
	}

	var tot e20Run
	for _, r := range runs {
		tot.submitted += r.submitted
		tot.accepted += r.accepted
		tot.preempted += r.preempted
		tot.grown += r.grown
		tot.shrunk += r.shrunk
		tot.scrapes += r.scrapes
	}
	t := &Table{
		ID:      "E20",
		Title:   "Live operations: flash-crowd churn under the admin control plane",
		Columns: []string{"property", "observed"},
	}
	t.AddRow("traffic (all reps)", fmt.Sprintf("%d submitted, %d accepted, %d preempted", tot.submitted, tot.accepted, tot.preempted))
	t.AddRow("capacity churn (all reps)", fmt.Sprintf("+%d / -%d units applied via /admin/v1/capacity", tot.grown, tot.shrunk))
	t.AddRow("ledger reconciliation", fmt.Sprintf("exact on %d/%d reps (edge-by-edge, post-drain)", len(runs), len(runs)))
	t.AddRow("load ≤ capacity", fmt.Sprintf("held at all %d scraped instants", tot.scrapes))
	t.AddRow("resize visibility", fmt.Sprintf("base→grown→drained levels present in the capacity series (e.g. %v)", runs[0].capLevels))
	t.AddRow("unauthenticated admin", "401 on every route, zero state mutated")
	t.AddNote("scenario: flash-crowd (internal/ops/scenario) — 6x spike, +2/edge grow at onset, -2/edge drain after; m=%d edges, cap %d, %d shards", m, c, shards)
	t.AddNote("scraper polls /metrics + /admin/v1/occupancy every tick into internal/timeseries rings (the acops data path)")
	t.AddNote("acceptance: exact reconcile + pointwise validity + series visibility + 401-mutates-nothing on every rep: PASS (violations fail the experiment)")
	return []*Table{t}, nil
}

// e20Server stands up an admin-enabled in-process server over a flat
// m×capacity vector and returns its engine, base URL and stop, which
// drains the server, closes it and the engine, and returns the drain
// error.
func e20Server(seed uint64, m, capacity, shards int) (*engine.Engine, string, func() error, error) {
	caps := make([]int, m)
	for i := range caps {
		caps[i] = capacity
	}
	acfg := core.DefaultConfig()
	acfg.Seed = seed
	eng, err := engine.New(caps, engine.Config{Shards: shards, Algorithm: acfg})
	if err != nil {
		return nil, "", nil, err
	}
	base, stop, err := serveLoopback(server.Config{AdminToken: e20Token}, server.Admission(eng), "")
	if err != nil {
		eng.Close()
		return nil, "", nil, err
	}
	return eng, base, func() error {
		err := stop()
		eng.Close()
		return err
	}, nil
}

// e20Churn runs one flash-crowd repetition with a per-tick scrape and
// checks validity, reconciliation and visibility.
func e20Churn(seed uint64, m, capacity, shards int) (run e20Run, err error) {
	_, base, stop, err := e20Server(seed, m, capacity, shards)
	if err != nil {
		return run, err
	}
	defer func() { err = errors.Join(err, stop()) }()

	admin := ops.NewAdminClient(base, e20Token)
	scraper := ops.NewScraper(admin, 256)
	d := &scenario.Driver{
		Client: server.NewAdmissionClient(base, 2),
		Admin:  admin,
		Seed:   int64(seed),
	}
	sc, err := scenario.Lookup("flash-crowd", m)
	if err != nil {
		return run, err
	}
	// Wrap the scenario's traffic hook to scrape once per tick: the series
	// then samples the pre-grow, grown, and post-drain capacity levels.
	ctx := context.Background()
	inner := sc.Traffic
	var scrapeErr error
	sc.Traffic = func(tick int, rng *rand.Rand, v scenario.View) []problem.Request {
		if err := scraper.Scrape(ctx); err != nil && scrapeErr == nil {
			scrapeErr = err
		}
		return inner(tick, rng, v)
	}
	rep, err := d.Run(ctx, sc)
	if err != nil {
		return run, err
	}
	if scrapeErr != nil {
		return run, fmt.Errorf("scrape: %w", scrapeErr)
	}
	if err := scraper.Scrape(ctx); err != nil {
		return run, err
	}
	run.submitted, run.accepted, run.preempted = rep.Submitted, rep.Accepted, rep.Preempted
	run.grown, run.shrunk = rep.GrownUnits, rep.ShrunkUnits
	if run.grown != 2*m || run.shrunk == 0 {
		return run, fmt.Errorf("capacity churn incomplete: grown %d units (want %d), shrunk %d", run.grown, 2*m, run.shrunk)
	}

	// Property 1a: exact post-drain ledger reconciliation.
	occ, err := admin.Occupancy(ctx)
	if err != nil {
		return run, err
	}
	if err := rep.Reconcile(occ); err != nil {
		return run, err
	}
	// Property 1b: pointwise validity — load within capacity at every
	// scraped instant (capacity and load come from the same occupancy
	// fetch, so the pair is a consistent snapshot).
	capSeries := scraper.Set.Series(ops.SeriesCapacityTotal).Points()
	loadSeries := scraper.Set.Series(ops.SeriesLoadTotal).Points()
	if len(capSeries) != len(loadSeries) || len(capSeries) != sc.Ticks+1 {
		return run, fmt.Errorf("scraped %d capacity / %d load points, want %d each", len(capSeries), len(loadSeries), sc.Ticks+1)
	}
	run.scrapes = len(capSeries)
	for i := range capSeries {
		if loadSeries[i].V > capSeries[i].V {
			return run, fmt.Errorf("scrape %d: load %v exceeds capacity %v", i, loadSeries[i].V, capSeries[i].V)
		}
	}
	// Property 2: the resize is visible — the series walks through the
	// base level, the grown peak, and a post-drain level below the peak.
	for _, p := range capSeries {
		if len(run.capLevels) == 0 || run.capLevels[len(run.capLevels)-1] != p.V {
			run.capLevels = append(run.capLevels, p.V)
		}
	}
	baseCap := float64(m * capacity)
	peak := baseCap + float64(2*m)
	if len(run.capLevels) < 3 || run.capLevels[0] != baseCap || run.capLevels[1] != peak || run.capLevels[len(run.capLevels)-1] >= peak {
		return run, fmt.Errorf("capacity series does not show the resize: levels %v (base %v, peak %v)", run.capLevels, baseCap, peak)
	}
	return run, nil
}

// e20Auth checks the authority property: unauthenticated (and
// wrong-token) admin requests answer 401 and mutate nothing.
func e20Auth(m, capacity, shards int) (err error) {
	eng, base, stop, err := e20Server(1, m, capacity, shards)
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, stop()) }()

	hc := &http.Client{}
	routes := []struct{ method, path, body string }{
		{http.MethodPost, "/admin/v1/capacity", `{"delta":5}`},
		{http.MethodPost, "/admin/v1/pause", ""},
		{http.MethodPost, "/admin/v1/snapshot", ""},
		{http.MethodGet, "/admin/v1/occupancy", ""},
	}
	for _, token := range []string{"", "wrong-token"} {
		for _, rt := range routes {
			req, err := http.NewRequest(rt.method, base+rt.path, strings.NewReader(rt.body))
			if err != nil {
				return err
			}
			if token != "" {
				req.Header.Set("Authorization", "Bearer "+token)
			}
			resp, err := hc.Do(req)
			if err != nil {
				return err
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusUnauthorized {
				return fmt.Errorf("%s %s with token %q answered %d, want 401", rt.method, rt.path, token, resp.StatusCode)
			}
		}
	}
	// Nothing mutated: capacity at construction, intake not paused.
	for e, cp := range eng.Capacities() {
		if cp != capacity {
			return fmt.Errorf("edge %d capacity %d after unauthenticated requests, want %d", e, cp, capacity)
		}
	}
	client := server.NewAdmissionClient(base, 1)
	decs, err := client.Submit(context.Background(), []problem.Request{{Edges: []int{0}, Cost: 1}})
	if err != nil || len(decs) != 1 {
		return fmt.Errorf("submission after unauthenticated pause attempt failed: %v", err)
	}
	return nil
}
