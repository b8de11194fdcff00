package harness

import (
	"fmt"
	"os"
	"strings"
	"testing"
)

// TestMain installs the child hook: the crash-recovery (E17) and cluster
// fault-injection (E19) experiments re-execute this test binary as
// durable server children and SIGKILL them.
func TestMain(m *testing.M) {
	if os.Getenv(ChildEnv) != "" {
		RunChild()
	}
	os.Exit(m.Run())
}

// testConfig shrinks everything so the full suite runs in seconds.
func testConfig() Config {
	return Config{Seed: 42, Reps: 2, Scale: 0.3, Workers: 4, Check: true}
}

func TestTableASCII(t *testing.T) {
	tbl := &Table{
		ID:      "T1",
		Title:   "demo",
		Columns: []string{"a", "bb"},
	}
	tbl.AddRow("1", "2")
	tbl.AddRow("333", "4")
	tbl.AddNote("hello %d", 5)
	out := tbl.ASCII()
	for _, want := range []string{"T1", "demo", "333", "note: hello 5"} {
		if !strings.Contains(out, want) {
			t.Fatalf("ASCII missing %q:\n%s", want, out)
		}
	}
}

func TestTableCSV(t *testing.T) {
	tbl := &Table{Columns: []string{"x", "y"}}
	tbl.AddRow("a,b", `q"q`)
	out := tbl.CSV()
	if !strings.Contains(out, `"a,b"`) || !strings.Contains(out, `"q""q"`) {
		t.Fatalf("CSV quoting broken:\n%s", out)
	}
	if !strings.HasPrefix(out, "x,y\n") {
		t.Fatalf("CSV header broken:\n%s", out)
	}
}

func TestRegistryAndLookup(t *testing.T) {
	reg := Registry()
	if len(reg) != 20 {
		t.Fatalf("registry has %d experiments, want 20", len(reg))
	}
	ids := map[string]bool{}
	for _, e := range reg {
		if e.ID == "" || e.Title == "" || e.Run == nil {
			t.Fatalf("malformed experiment %+v", e)
		}
		if ids[e.ID] {
			t.Fatalf("duplicate id %s", e.ID)
		}
		ids[e.ID] = true
	}
	if _, ok := Lookup("e3"); !ok {
		t.Fatal("case-insensitive lookup failed")
	}
	if _, ok := Lookup("nope"); ok {
		t.Fatal("bogus lookup succeeded")
	}
}

func TestParallelEach(t *testing.T) {
	n := 100
	hits := make([]bool, n)
	var err error
	err = parallelEach(n, 7, func(i int) error {
		hits[i] = true
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, h := range hits {
		if !h {
			t.Fatalf("index %d not visited", i)
		}
	}
	if err := parallelEach(0, 3, func(int) error { return nil }); err != nil {
		t.Fatal("empty run must succeed")
	}
}

func TestParallelEachPropagatesError(t *testing.T) {
	err := parallelEach(10, 3, func(i int) error {
		if i%2 == 1 {
			return errTest
		}
		return nil
	})
	if err != errTest {
		t.Fatalf("err = %v", err)
	}
}

var errTest = errString("boom")

type errString string

func (e errString) Error() string { return string(e) }

func TestConfigDefaults(t *testing.T) {
	var c Config
	if c.reps() != 5 || c.scale() != 1 {
		t.Fatal("zero config defaults wrong")
	}
	if c.workers() < 1 {
		t.Fatal("workers must be positive")
	}
	if c.scaledInt(10, 3) != 10 {
		t.Fatal("scaledInt at scale 1")
	}
	c.Scale = 0.1
	if c.scaledInt(10, 3) != 3 {
		t.Fatal("scaledInt floor")
	}
}

// The experiment smoke tests run every experiment end to end at reduced
// scale: structure checks only (row counts, no errors), the scientific
// verdicts live in EXPERIMENTS.md at full scale.

func runExperiment(t *testing.T, id string, wantTables int) []*Table {
	t.Helper()
	e, ok := Lookup(id)
	if !ok {
		t.Fatalf("experiment %s missing", id)
	}
	tables, err := e.Run(testConfig())
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	if len(tables) != wantTables {
		t.Fatalf("%s produced %d tables, want %d", id, len(tables), wantTables)
	}
	for _, tbl := range tables {
		if len(tbl.Rows) == 0 {
			t.Fatalf("%s: empty table %s", id, tbl.ID)
		}
		if tbl.ASCII() == "" || tbl.CSV() == "" {
			t.Fatalf("%s: unrenderable table", id)
		}
	}
	return tables
}

func TestE1Smoke(t *testing.T)  { runExperiment(t, "E1", 3) }
func TestE2Smoke(t *testing.T)  { runExperiment(t, "E2", 2) }
func TestE3Smoke(t *testing.T)  { runExperiment(t, "E3", 2) }
func TestE4Smoke(t *testing.T)  { runExperiment(t, "E4", 1) }
func TestE5Smoke(t *testing.T)  { runExperiment(t, "E5", 1) }
func TestE6Smoke(t *testing.T)  { runExperiment(t, "E6", 2) }
func TestE8Smoke(t *testing.T)  { runExperiment(t, "E8", 1) }
func TestE9Smoke(t *testing.T)  { runExperiment(t, "E9", 1) }
func TestE10Smoke(t *testing.T) { runExperiment(t, "E10", 2) }

func TestE7ZeroRejection(t *testing.T) {
	tables := runExperiment(t, "E7", 1)
	// Scientific assertion: every rejected-cost cell must be exactly 0.
	for _, row := range tables[0].Rows {
		if row[2] != "0" {
			t.Fatalf("E7 violated: %v", row)
		}
	}
}

func TestE10GreedyTrapped(t *testing.T) {
	tables := runExperiment(t, "E10", 2)
	// Scientific assertion: greedy's ratio in the weighted trap equals W.
	found := false
	for _, row := range tables[0].Rows {
		if row[0] == "1000" && strings.Contains(row[1], "greedy") {
			found = true
			if row[4] != "1000.00" {
				t.Fatalf("greedy trap ratio = %s, want 1000.00", row[4])
			}
		}
	}
	if !found {
		t.Fatal("greedy W=1000 row missing")
	}
}

func TestE12Smoke(t *testing.T) { runExperiment(t, "E12", 1) }
func TestE13Smoke(t *testing.T) { runExperiment(t, "E13", 1) }

// TestE14ServerLoopbackWithinTolerance is the E14 acceptance criterion:
// serving through the acserve loopback pipeline stays within 2x of the
// direct engine ratio (conns=1 must match it exactly — same seed, FIFO
// pipeline), and the in-experiment reconciliation check (client decision
// stream vs engine accounting) must not have tripped.
func TestE14ServerLoopbackWithinTolerance(t *testing.T) {
	tables := runExperiment(t, "E14", 1)
	tbl := tables[0]
	if len(tbl.Rows) != 3 {
		t.Fatalf("E14: %d rows, want 3\n%s", len(tbl.Rows), tbl.ASCII())
	}
	for i, row := range tbl.Rows {
		var rel float64
		if _, err := fmt.Sscanf(row[4], "%f", &rel); err != nil {
			t.Fatalf("unparsable vs-direct cell %q", row[4])
		}
		if rel > 2 {
			t.Fatalf("E14: %s ratio %.2fx the direct baseline, tolerance is 2x\n%s",
				row[0], rel, tbl.ASCII())
		}
		// The single-connection loopback is decision-identical to direct.
		if i == 1 && tbl.Rows[1][3] != tbl.Rows[0][3] {
			t.Fatalf("E14: conns=1 ratio %q differs from direct %q\n%s",
				tbl.Rows[1][3], tbl.Rows[0][3], tbl.ASCII())
		}
	}
	for _, note := range tbl.Notes {
		if strings.Contains(note, "FAIL") {
			t.Fatalf("E14 verdict failed: %s", note)
		}
	}
}

// TestE15CoverLoopbackWithinTolerance is the E15 acceptance criterion:
// every served set cover path stays within 2x of the offline optimum, the
// conns=1 loopback is decision-identical to the direct sequential
// reduction (the in-experiment line-by-line comparison errors out on any
// divergence, so the experiment completing proves it), and the served
// decision streams reconciled with the cover engine's ledger.
func TestE15CoverLoopbackWithinTolerance(t *testing.T) {
	tables := runExperiment(t, "E15", 1)
	tbl := tables[0]
	if len(tbl.Rows) != 3 {
		t.Fatalf("E15: %d rows, want 3\n%s", len(tbl.Rows), tbl.ASCII())
	}
	for _, row := range tbl.Rows {
		var ratio float64
		if _, err := fmt.Sscanf(row[2], "%f", &ratio); err != nil {
			t.Fatalf("unparsable ratio cell %q", row[2])
		}
		if ratio > 2 {
			t.Fatalf("E15: %s cover cost %.2fx the offline optimum, tolerance is 2x\n%s",
				row[0], ratio, tbl.ASCII())
		}
	}
	// The conns=1 path runs the direct seed, so its ratio matches exactly.
	if tbl.Rows[1][2] != tbl.Rows[0][2] {
		t.Fatalf("E15: conns=1 ratio %q differs from direct %q\n%s",
			tbl.Rows[1][2], tbl.Rows[0][2], tbl.ASCII())
	}
	for _, note := range tbl.Notes {
		if strings.Contains(note, "FAIL") {
			t.Fatalf("E15 verdict failed: %s", note)
		}
	}
}

// TestE16WireLoopbackWithinTolerance is the E16 acceptance criterion: the
// binary wire protocol is decision-invisible. Both conns=1 codecs are
// compared line by line against the direct engine inside the experiment
// (it errors out on the first divergence, so completing proves identity),
// the wire conns=8 accounting reconciles with the engine, and every
// served ratio stays within 2x of direct.
func TestE16WireLoopbackWithinTolerance(t *testing.T) {
	tables := runExperiment(t, "E16", 1)
	tbl := tables[0]
	if len(tbl.Rows) != 4 {
		t.Fatalf("E16: %d rows, want 4\n%s", len(tbl.Rows), tbl.ASCII())
	}
	for _, row := range tbl.Rows {
		var rel float64
		if _, err := fmt.Sscanf(row[3], "%f", &rel); err != nil {
			t.Fatalf("unparsable vs-direct cell %q", row[3])
		}
		if rel > 2 {
			t.Fatalf("E16: %s ratio %.2fx the direct baseline, tolerance is 2x\n%s",
				row[0], rel, tbl.ASCII())
		}
	}
	// Both single-connection codecs run the direct seed over a FIFO
	// pipeline, so their ratio cells match direct exactly.
	for _, i := range []int{1, 2} {
		if tbl.Rows[i][2] != tbl.Rows[0][2] {
			t.Fatalf("E16: %s ratio %q differs from direct %q\n%s",
				tbl.Rows[i][0], tbl.Rows[i][2], tbl.Rows[0][2], tbl.ASCII())
		}
	}
	for _, note := range tbl.Notes {
		if strings.Contains(note, "FAIL") {
			t.Fatalf("E16 verdict failed: %s", note)
		}
	}
}

// TestE17CrashRecoveryIdentical is the E17 acceptance criterion: a durable
// server SIGKILLed mid-load recovers exactly the acknowledged decision
// prefix from its WAL and continues the stream byte-identically to an
// uninterrupted run. The experiment errors out on any divergence — a
// recovered count different from the acknowledged count, a served decision
// differing from the golden stream, a failed SIGTERM shutdown snapshot, or
// an fsck digest mismatch — so it completing at all proves the property;
// the test additionally checks the table shape and verdict.
func TestE17CrashRecoveryIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	tables := runExperiment(t, "E17", 1)
	tbl := tables[0]
	if len(tbl.Rows) != 5 {
		t.Fatalf("E17: %d rows, want 5\n%s", len(tbl.Rows), tbl.ASCII())
	}
	ok := false
	for _, note := range tbl.Notes {
		if strings.Contains(note, "FAIL") {
			t.Fatalf("E17 verdict failed: %s", note)
		}
		if strings.Contains(note, "PASS") {
			ok = true
		}
	}
	if !ok {
		t.Fatalf("E17: no PASS verdict\n%s", tbl.ASCII())
	}
}

// TestE18QueryTierConsistentAndScales is the E18 acceptance criterion: the
// local-computation query tier answers every position line-identically to
// the 1-shard streaming engine — locally and served over both codecs at
// conns=1 (the experiment errors out on the first divergence, so it
// completing proves identity) — and the worker sweep renders a sane
// speedup column. The ≥2x workers=8 throughput gate lives in the committed
// BENCH_8.json benchmark, not here: wall-clock speedups at smoke scale
// under -race are too noisy to assert in CI.
func TestE18QueryTierConsistentAndScales(t *testing.T) {
	tables := runExperiment(t, "E18", 1)
	tbl := tables[0]
	if len(tbl.Rows) != 4 {
		t.Fatalf("E18: %d rows, want 4\n%s", len(tbl.Rows), tbl.ASCII())
	}
	for _, row := range tbl.Rows {
		var rel float64
		if _, err := fmt.Sscanf(row[2], "%f", &rel); err != nil {
			t.Fatalf("unparsable speedup cell %q", row[2])
		}
		if rel <= 0 {
			t.Fatalf("E18: workers=%s speedup %.2fx must be positive\n%s",
				row[0], rel, tbl.ASCII())
		}
	}
	identity := false
	for _, note := range tbl.Notes {
		if strings.Contains(note, "line-identical") {
			identity = true
		}
	}
	if !identity {
		t.Fatalf("E18: identity note missing\n%s", tbl.ASCII())
	}
}

// TestE19ClusterTier is the E19 acceptance criterion: the routed conns=1
// decision stream over a single-backend cluster is line-identical to a
// direct run of the same seeded engine, a cluster of 3 partitioned
// backends stays within 2x of single-node throughput, every router↔
// backend ledger reconciles exactly, and a backend SIGKILLed mid-load is
// shed with typed refusals and re-admitted decision-identically after WAL
// recovery. The experiment errors out on any divergence — so it
// completing at all proves the properties; the test additionally checks
// the table shape and verdict.
func TestE19ClusterTier(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	tables := runExperiment(t, "E19", 1)
	tbl := tables[0]
	if len(tbl.Rows) != 9 {
		t.Fatalf("E19: %d rows, want 9\n%s", len(tbl.Rows), tbl.ASCII())
	}
	ok := false
	for _, note := range tbl.Notes {
		if strings.Contains(note, "FAIL") {
			t.Fatalf("E19 verdict failed: %s", note)
		}
		if strings.Contains(note, "PASS") {
			ok = true
		}
	}
	if !ok {
		t.Fatalf("E19: no PASS verdict\n%s", tbl.ASCII())
	}
}

// TestE20LiveOps is the E20 acceptance criterion: the flash-crowd churn
// scenario — admin capacity grow under the spike, preempting
// drain-and-shrink after — keeps every decision valid (load within
// capacity at every scraped instant, client-side ledger reconciling
// exactly with server occupancy post-drain), the resize is visible in the
// scraped capacity series, and unauthenticated admin requests answer 401
// without mutating anything. The experiment errors out on any violation,
// so it completing at all proves the properties; the test additionally
// checks the table shape and verdict.
func TestE20LiveOps(t *testing.T) {
	tables := runExperiment(t, "E20", 1)
	tbl := tables[0]
	if len(tbl.Rows) != 6 {
		t.Fatalf("E20: %d rows, want 6\n%s", len(tbl.Rows), tbl.ASCII())
	}
	ok := false
	for _, note := range tbl.Notes {
		if strings.Contains(note, "FAIL") {
			t.Fatalf("E20 verdict failed: %s", note)
		}
		if strings.Contains(note, "PASS") {
			ok = true
		}
	}
	if !ok {
		t.Fatalf("E20: no PASS verdict\n%s", tbl.ASCII())
	}
}

// TestE11EngineWithinTolerance is the E11 acceptance criterion: the sharded
// engine's empirical ratio stays within 2x of the unsharded §3 algorithm
// (the K=1 baseline) at every shard count.
func TestE11EngineWithinTolerance(t *testing.T) {
	tables := runExperiment(t, "E11", 1)
	tbl := tables[0]
	for _, row := range tbl.Rows {
		var rel float64
		if _, err := fmt.Sscanf(row[4], "%f", &rel); err != nil {
			t.Fatalf("unparsable vs-K=1 cell %q", row[4])
		}
		if rel > 2 {
			t.Fatalf("E11: K=%s ratio %.2fx the unsharded baseline, tolerance is 2x\n%s",
				row[0], rel, tbl.ASCII())
		}
	}
	for _, note := range tbl.Notes {
		if strings.Contains(note, "FAIL") {
			t.Fatalf("E11 verdict failed: %s", note)
		}
	}
}

func TestExperimentsDeterministicAcrossWorkers(t *testing.T) {
	// Per-point seeds make every experiment's output independent of the
	// worker count and scheduling; tables must be byte-identical.
	if testing.Short() {
		t.Skip("short mode")
	}
	run := func(workers int) string {
		cfg := testConfig()
		cfg.Workers = workers
		var out strings.Builder
		for _, id := range []string{"E1", "E3", "E4", "E8"} {
			e, _ := Lookup(id)
			tables, err := e.Run(cfg)
			if err != nil {
				t.Fatalf("%s: %v", id, err)
			}
			for _, tbl := range tables {
				out.WriteString(tbl.ASCII())
			}
		}
		return out.String()
	}
	serial := run(1)
	parallel := run(8)
	if serial != parallel {
		t.Fatal("experiment output depends on worker count")
	}
}

func TestDefaultConfigSane(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.Reps <= 0 || cfg.Scale != 1 || !cfg.Check {
		t.Fatalf("DefaultConfig = %+v", cfg)
	}
}

func TestRunAllAtTinyScale(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cfg := Config{Seed: 3, Reps: 1, Scale: 0.2, Workers: 4, Check: true}
	var buf strings.Builder
	tables, err := RunAll(cfg, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) < 14 {
		t.Fatalf("RunAll produced %d tables", len(tables))
	}
	out := buf.String()
	for _, id := range []string{"E1", "E4", "E10", "E11", "E12", "E13", "E14", "E16", "E18"} {
		if !strings.Contains(out, id) {
			t.Fatalf("RunAll output missing %s", id)
		}
	}
}
