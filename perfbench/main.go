// Command perfbench is the repository's end-to-end benchmark. It generates
// one workload's inputs from a seed, serves them through the real serving
// stack in process over loopback TCP, checks every decision the client
// received against the system's own accounting, and prints the
// end-to-end metrics — or, with -trace 1, the per-layer ladder — as the
// last line of its output, one JSON object.
//
// Run it from the repository root through its wrapper, which builds it:
//
//	python3 perfbench/run.py --workload paths-weighted --seed 1 --seconds 20 --trace 0
//
// Every run repeats a cycle of fresh-stack phases until its time is spent:
// a closed loop over the whole sequence (CPU cost, throughput, objective,
// memory), in the first openPhases cycles an open loop at the workload's
// fixed rate (latency), and in a traced run a traced closed loop.
// Reported figures are medians over the run's phases; the latency
// percentiles are taken per open-loop phase first.
//
// The bounded end-to-end figures are the ones a shared host leaves
// steady. Set-up time and the closed loop's cost are process CPU time,
// which excludes the time the host gives other tenants, read at a
// reference speed through the calibration kernel (calibrate.go):
// wall-clock throughput and the open loop's p99 swung by half from run
// to run on a 2-core VM. Both wall-clock figures are still measured, on
// the host line and in the traced run's bench.* metrics.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	rtmetrics "runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"

	"admission/internal/rng"
)

// metricDef names one reported metric and its unit. For a per-layer
// metric, better says which direction is an improvement and moves
// records, before any optimisation, which end-to-end metric on which
// workload it should move ("flat" names a workload where it should not).
type metricDef struct{ name, unit, better, moves string }

// endToEnd are the metrics an untraced run reports.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s"},
	{name: "cpu_us_per_decision", unit: "us"},
	{name: "latency_p50_ms", unit: "ms"},
	{name: "objective_ratio", unit: "ratio"},
	{name: "peak_rss_mb", unit: "MB"},
}

const (
	movesCore    = "cpu_us_per_decision and bench.latency_p99_ms on paths-weighted and cover-repeats; flat on single-edge-durable"
	movesEngine  = "cpu_us_per_decision on paths-weighted, latency_p50_ms on single-edge-durable"
	movesServer  = "latency_p50_ms and bench.latency_p99_ms on single-edge-durable"
	movesJSON    = "cpu_us_per_decision on paths-weighted only (the one JSON workload)"
	movesWire    = "cpu_us_per_decision on single-edge-durable and cover-repeats; flat on paths-weighted"
	movesWAL     = "latency_p50_ms and bench.latency_p99_ms on single-edge-durable only; zero elsewhere"
	movesCover   = "cpu_us_per_decision on cover-repeats only"
	movesCluster = "cpu_us_per_decision and latency_p50_ms on routed-mix only"
	movesRuntime = "cpu_us_per_decision on every workload"
	movesBench   = "none: the wall-clock figures next to cpu_us_per_decision and latency_p50_ms"
)

// perLayer are the metrics a traced run reports; a layer the workload
// bypasses reads 0.
var perLayer = []metricDef{
	{"core.offer_us", "us", "lower", movesCore},
	{"core.aug_steps_per_offer", "count", "lower", movesCore},
	{"core.preemptions_per_offer", "count", "lower", movesCore},
	{"core.allocs_per_offer", "count", "lower", movesCore},
	{"engine.submit_us", "us", "lower", movesEngine},
	{"engine.cross_shard_frac", "ratio", "lower", movesEngine},
	{"engine.allocs_per_decision", "count", "lower", movesEngine},
	{"server.client_rtt_ms_p50", "ms", "lower", movesServer},
	{"server.client_rtt_ms_p99", "ms", "lower", movesServer},
	{"server.client_self_ms_p50", "ms", "lower", movesServer},
	{"server.handler_ms_p50", "ms", "lower", movesServer},
	{"server.handler_ms_p99", "ms", "lower", movesServer},
	{"server.queue_to_decision_ms_p50", "ms", "lower", movesServer},
	{"server.queue_to_decision_ms_p99", "ms", "lower", movesServer},
	{"server.batch_size_mean", "count", "higher", movesServer},
	{"server.json_decode_ns_per_item", "ns", "lower", movesJSON},
	{"server.json_encode_ns_per_item", "ns", "lower", movesJSON},
	{"wire.decode_ns_per_item", "ns", "lower", movesWire},
	{"wire.encode_ns_per_item", "ns", "lower", movesWire},
	{"wire.bytes_per_item", "bytes", "lower", movesWire},
	{"wal.append_us_per_record", "us", "lower", movesWAL},
	{"wal.sync_ms", "ms", "lower", movesWAL},
	{"wal.fsync_ms_p99", "ms", "lower", movesWAL},
	{"wal.records_per_fsync", "count", "higher", movesWAL},
	{"wal.bytes_per_record", "bytes", "lower", movesWAL},
	{"coverengine.submit_us", "us", "lower", movesCover},
	{"coverengine.allocs_per_arrival", "count", "lower", movesCover},
	{"coverengine.sets_per_1k_arrivals", "count", "lower", movesCover},
	{"setcover.arrive_us", "us", "lower", movesCover},
	{"cluster.router_overhead_ms_p50", "ms", "lower", movesCluster},
	{"cluster.router_overhead_ms_p99", "ms", "lower", movesCluster},
	{"cluster.backend_calls_per_decision", "count", "lower", movesCluster},
	{"cluster.cross_partition_frac", "ratio", "lower", movesCluster},
	{"cluster.shed", "count", "lower", movesCluster},
	{"cluster.phantoms", "count", "lower", movesCluster},
	{"runtime.alloc_bytes_per_decision", "bytes", "lower", movesRuntime},
	{"runtime.gc_cpu_frac", "ratio", "lower", movesRuntime},
	// The closed loop's decisions per wall-clock second and the open
	// loop's p99 over all its submissions.
	{"bench.decisions_per_s", "1/s", "higher", movesBench},
	{"bench.latency_p99_ms", "ms", "lower", movesBench},
	// The open loop kept its schedule when this stays well below the
	// latency it is read next to.
	{"bench.send_lag_ms_p99", "ms", "lower", "none: checks the latency figures"},
	// The traced closed loop's decisions per second against the untraced
	// one's.
	{"trace.overhead_frac", "ratio", "lower", "none: tracing cost"},
}

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "workload to run: "+workloadNames())
	seed := flag.Uint64("seed", 1, "seed the inputs are generated from")
	seconds := flag.Int("seconds", 20, "how long to measure")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer ladder, 0 the untraced end-to-end run")
	flag.Parse()
	sp, ok := lookup(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (%s), -seconds ≥ 1 and -trace 0|1\n", workloadNames())
		return 2
	}
	if err := os.MkdirAll(scratchDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	res, err := bench(sp, *seed, time.Duration(*seconds)*time.Second, *trace == 1, openPhases)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	host, _ := json.Marshal(res.host)
	fmt.Printf("host %s\n", host)
	line, err := json.Marshal(res.out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.out.Correct {
		return 1
	}
	return 0
}

func workloadNames() string {
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.name
	}
	return strings.Join(names, ", ")
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// output is the result line.
type output struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type result struct {
	out  output
	host map[string]any
}

// collected accumulates one run's measurements across cycles.
type collected struct {
	attempted, failed int64
	items             int64 // items in one phase's sequence
	checkErr          error
	setups            []float64 // CPU seconds
	dps, ratios       []float64
	cpuPerDecision    []float64 // µs of process CPU time
	calibration       []float64 // the kernel's CPU seconds, one per cycle
	allocPerDecision  []float64
	gcFrac            []float64
	latencies, lags   []time.Duration
	// p50 is each open-loop phase's median latency.
	p50 []float64
	// submissions is the number of submissions in one open-loop phase.
	submissions     int
	trivial         []float64 // the trivial engine's objective ratio
	tracedDps       []float64
	tracedDecisions int64
	layer           []map[string]float64 // per traced cycle: scraped layer metrics
}

func (c *collected) count(r loopResult) {
	c.attempted += r.attempted
	c.failed += r.failed
}

// bench runs cycles until the time budget is spent and opens open-loop
// phases are done; in a traced run the ladder runs first, inside the same
// budget.
func bench(sp spec, seed uint64, budget time.Duration, traced bool, opens int) (*result, error) {
	ctx := context.Background()
	t0 := time.Now()
	var rec *recorder
	ladder := map[string]float64{}
	if traced {
		rec = newRecorder()
		if err := sp.ladder(seed, rec, ladder); err != nil {
			return nil, fmt.Errorf("ladder: %w", err)
		}
	}
	// Each cycle draws its inputs from its own seed, derived from the
	// run's: a run then averages over many input draws, so its medians
	// depend on the seed only as much as the workload's figures do, not
	// on one draw's luck (on routed-mix, one draw's early grants set how
	// many batches need a second wave for the whole sequence).
	seeds := rng.New(seed)
	// A warm-up cycle first: its decisions are checked like any other,
	// but its timings are dropped — the first stacks of a process pay for
	// heap growth and fresh connections that later phases do not.
	c := &collected{}
	if err := runCycle(ctx, sp, seeds.Uint64(), nil, c, false); err != nil {
		return nil, err
	}
	c = &collected{attempted: c.attempted, failed: c.failed, checkErr: c.checkErr}
	var cycle time.Duration
	for n := 0; c.checkErr == nil && (n < opens || time.Since(t0)+cycle <= budget); n++ {
		cs := time.Now()
		if err := runCycle(ctx, sp, seeds.Uint64(), rec, c, n < opens); err != nil {
			return nil, err
		}
		cycle = time.Since(cs)
	}
	if c.checkErr != nil {
		fmt.Fprintln(os.Stderr, "perfbench: output check failed:", c.checkErr)
	}

	out := output{
		Correct:   c.checkErr == nil,
		Attempted: c.attempted,
		Failed:    c.failed,
		Metrics:   map[string]metricValue{},
	}
	set := func(defs []metricDef, vals map[string]float64) {
		for _, d := range defs {
			out.Metrics[d.name] = metricValue{Value: vals[d.name], Unit: d.unit}
		}
	}
	if traced {
		spans := rec.snapshot()
		vals := layerMetrics(c, ladder, spans)
		set(perLayer, vals)
		layerReport(spans)
		for _, d := range perLayer {
			fmt.Printf("%-36s %14.4f %-6s moves %s\n", d.name, vals[d.name], d.unit, d.moves)
		}
		path := filepath.Join(scratchDir, fmt.Sprintf("spans-%s-seed%d.jsonl", sp.name, seed))
		if err := writeSpans(path, spans); err != nil {
			return nil, err
		}
		fmt.Printf("spans written to %s\n", path)
	} else {
		scale := speedScale(median(c.calibration))
		set(endToEnd, map[string]float64{
			"setup_s":             median(c.setups) * scale,
			"cpu_us_per_decision": median(c.cpuPerDecision) * scale,
			"latency_p50_ms":      median(c.p50),
			"objective_ratio":     median(c.ratios),
			"peak_rss_mb":         peakRSSMB(),
		})
	}
	return &result{out: out, host: map[string]any{
		"workload":                   sp.name,
		"seed":                       seed,
		"traced":                     traced,
		"nproc":                      runtime.NumCPU(),
		"gomaxprocs":                 runtime.GOMAXPROCS(0),
		"go_version":                 runtime.Version(),
		"git_revision":               envOr("BENCH_GIT_REVISION", "unknown"),
		"source_digest":              envOr("BENCH_SOURCE_DIGEST", "unknown"),
		"cycles":                     len(c.dps),
		"items_per_phase":            c.items,
		"open_phases":                len(c.p50),
		"submissions_per_open_phase": c.submissions,
		"latency_samples":            len(c.latencies),
		// The kernel's median CPU time, and the CPU figures as measured,
		// before scaling to the reference speed.
		"calibration_ms":          1e3 * median(c.calibration),
		"raw_cpu_us_per_decision": median(c.cpuPerDecision),
		"raw_setup_s":             median(c.setups),
		// What objective_ratio would read for an engine that rejected
		// every request, or bought every set: how far the metric can move.
		"trivial_ratio": median(c.trivial),
		// The wall-clock figures the host moves most: the closed loop's
		// median throughput and the open loop's p99 over every sample of
		// the run.
		"decisions_per_s":       median(c.dps),
		"latency_p99_ms":        quantile(ms(c.latencies), 0.99),
		"pooled_latency_p50_ms": quantile(ms(c.latencies), 0.50),
		"open_rate_per_s":       sp.rate,
		"open_chunk":            sp.chunk,
		"client_conns":          clientConns,
		"batch":                 batch,
	}}, nil
}

func envOr(key, def string) string {
	if v := os.Getenv(key); v != "" {
		return v
	}
	return def
}

// setupTimed sets a fresh system up and returns the process CPU time
// that took, in seconds: set-up is CPU-bound (its wall time and CPU time
// agree on a quiet host), and CPU time is what work moved into set-up
// adds, whereas wall time also doubles when another tenant holds the
// cores. The caller scales it to the reference speed. The previous phase's garbage is collected first, unmeasured, so
// every phase starts from the same heap and peak_rss_mb reads one
// phase's footprint, not whether the collector happened to run before
// the next phase's inputs were generated (on cover-repeats that alone
// moved it by 15%).
func setupTimed(sp spec, seed uint64, rec *recorder) (system, float64, error) {
	runtime.GC()
	start := processCPU()
	sys, err := sp.setup(seed, rec)
	return sys, processCPU() - start, err
}

// openPhases is how many cycles of a run make an open-loop phase: a fixed
// number, whatever the time budget and however fast the system runs, so
// the latency figures are the same statistic in every run.
const openPhases = 10

// runCycle runs one closed-loop phase, one open-loop phase when open is
// set and, when traced, one traced closed-loop phase, each on a fresh
// stack. Failed output checks are recorded in c.checkErr; an error means
// the stack could not run at all.
func runCycle(ctx context.Context, sp spec, seed uint64, rec *recorder, c *collected, open bool) error {
	// The kernel runs first: between set-up and the closed loop it would
	// evict from the caches the state set-up has just built.
	c.calibration = append(c.calibration, calibrate())
	sys, setup, err := setupTimed(sp, seed, nil)
	if err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	c.setups = append(c.setups, setup)
	rt0, cpu0 := readRuntime(), processCPU()
	res := sys.closed(ctx, nil)
	rt1, cpu1 := readRuntime(), processCPU()
	obj, err := sys.finish()
	c.count(res)
	if err != nil {
		c.checkErr = fmt.Errorf("closed loop: %w", err)
		return nil
	}
	c.items = res.attempted
	decided := float64(res.attempted - res.failed)
	c.dps = append(c.dps, decided/res.elapsed.Seconds())
	c.cpuPerDecision = append(c.cpuPerDecision, 1e6*ratio(cpu1-cpu0, decided))
	sc := sys.scale()
	c.ratios = append(c.ratios, obj/sc.bound)
	c.trivial = append(c.trivial, sc.trivial/sc.bound)
	c.allocPerDecision = append(c.allocPerDecision, ratio(rt1.allocBytes-rt0.allocBytes, decided))
	c.gcFrac = append(c.gcFrac, ratio(rt1.gcCPU-rt0.gcCPU, rt1.totalCPU-rt0.totalCPU))
	fmt.Printf("cycle %d: setup %.4fs calibration %.2fms closed %.0f/s %.2fus ratio %.4f", len(c.dps), setup, 1e3*c.calibration[len(c.calibration)-1],
		c.dps[len(c.dps)-1], c.cpuPerDecision[len(c.cpuPerDecision)-1], c.ratios[len(c.ratios)-1])

	if open {
		if sys, setup, err = setupTimed(sp, seed, nil); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		c.setups = append(c.setups, setup)
		res = sys.open(ctx, sp.rate, sp.chunk)
		_, err = sys.finish()
		c.count(res)
		if err != nil {
			c.checkErr = fmt.Errorf("open loop: %w", err)
			return nil
		}
		lat := ms(res.latencies)
		c.submissions = len(lat)
		c.latencies = append(c.latencies, res.latencies...)
		c.lags = append(c.lags, res.lags...)
		c.p50 = append(c.p50, quantile(lat, 0.50))
		fmt.Printf(" open p50 %.3fms p99 %.3fms", c.p50[len(c.p50)-1], quantile(lat, 0.99))
	}
	fmt.Println()

	if rec == nil {
		return nil
	}
	if sys, _, err = setupTimed(sp, seed, rec); err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	res = sys.closed(ctx, rec)
	layer, scrapeErr := scrapeLayer(ctx, sp, sys)
	_, err = sys.finish()
	c.count(res)
	if err = errors.Join(scrapeErr, err); err != nil {
		c.checkErr = fmt.Errorf("traced closed loop: %w", err)
		return nil
	}
	c.tracedDps = append(c.tracedDps, float64(res.attempted-res.failed)/res.elapsed.Seconds())
	c.tracedDecisions += res.attempted - res.failed
	c.layer = append(c.layer, layer)
	return nil
}

// scrapeLayer reads the per-layer figures the server itself keeps on
// /metrics, while the traced stack is still up.
func scrapeLayer(ctx context.Context, sp spec, sys system) (map[string]float64, error) {
	p, err := sys.scrape(ctx)
	if err != nil {
		return nil, err
	}
	w := "acserve_" + sys.route() + "_"
	out := map[string]float64{
		"server.queue_to_decision_ms_p50": 1e3 * p.histQuantile(w+"decision_latency_seconds", 0.50),
		"server.queue_to_decision_ms_p99": 1e3 * p.histQuantile(w+"decision_latency_seconds", 0.99),
		"server.batch_size_mean":          ratio(p.value(w+"batch_size_sum"), p.value(w+"batch_size_count")),
		"wal.fsync_ms_p99":                1e3 * p.histQuantile("acserve_wal_fsync_seconds", 0.99),
		"wal.records_per_fsync":           ratio(p.value("acserve_wal_appends_total"), p.value("acserve_wal_fsync_seconds_count")),
		"wal.bytes_per_record":            ratio(p.value("acserve_wal_bytes_total"), p.value("acserve_wal_appends_total")),
	}
	if sp.layerStats != nil {
		if err := sp.layerStats(ctx, sys, out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// layerMetrics assembles the traced run's per-layer metrics from the
// ladder, the spans of the traced closed loops and the scraped figures.
func layerMetrics(c *collected, ladder map[string]float64, spans []span) map[string]float64 {
	out := map[string]float64{}
	for k, v := range ladder {
		out[k] = v
	}
	for _, d := range perLayer {
		var vals []float64
		for _, l := range c.layer {
			if v, ok := l[d.name]; ok {
				vals = append(vals, v)
			}
		}
		if len(vals) > 0 {
			out[d.name] = median(vals)
		}
	}
	rtt := ms(durations(byName(spans, spanClient)))
	handler := ms(durations(byName(spans, spanHandler)))
	out["server.client_rtt_ms_p50"] = quantile(rtt, 0.50)
	out["server.client_rtt_ms_p99"] = quantile(rtt, 0.99)
	out["server.client_self_ms_p50"] = quantile(ms(selfTimes(spans, spanClient)), 0.50)
	out["server.handler_ms_p50"] = quantile(handler, 0.50)
	out["server.handler_ms_p99"] = quantile(handler, 0.99)
	if backend := byName(spans, spanBackend); len(backend) > 0 {
		overhead := ms(overlapSelfTimes(spans, spanHandler, spanBackend))
		out["cluster.router_overhead_ms_p50"] = quantile(overhead, 0.50)
		out["cluster.router_overhead_ms_p99"] = quantile(overhead, 0.99)
		out["cluster.backend_calls_per_decision"] = ratio(float64(len(backend)), float64(c.tracedDecisions))
	}
	out["runtime.alloc_bytes_per_decision"] = median(c.allocPerDecision)
	out["runtime.gc_cpu_frac"] = median(c.gcFrac)
	out["bench.decisions_per_s"] = median(c.dps)
	out["bench.latency_p99_ms"] = quantile(ms(c.latencies), 0.99)
	out["bench.send_lag_ms_p99"] = quantile(ms(c.lags), 0.99)
	untraced := median(c.dps)
	out["trace.overhead_frac"] = ratio(untraced-median(c.tracedDps), untraced)
	return out
}

func durations(spans []span) []time.Duration {
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		out[i] = s.dur()
	}
	return out
}

// runtimeSample is the process-wide allocation and GC CPU counters.
type runtimeSample struct{ allocBytes, gcCPU, totalCPU float64 }

func readRuntime() runtimeSample {
	s := []rtmetrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	rtmetrics.Read(s)
	val := func(i int) float64 {
		switch s[i].Value.Kind() {
		case rtmetrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case rtmetrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return runtimeSample{val(0), val(1), val(2)}
}

// processCPU is the CPU time, user and system, the process has used so
// far, in seconds. The kernel leaves out time the host gave to other
// tenants (steal).
func processCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// peakRSSMB is the process's peak resident set size: VmHWM from
// /proc/self/status, which, unlike getrusage, does not carry over the
// peak of the wrapper that exec'd this process.
func peakRSSMB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
