package main

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"
	"time"
)

// benchmarkJSON is the schema of the repository's BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestBenchmarkJSONMatchesProgram keeps BENCHMARK.json and the program's
// workload and metric tables in step.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var b benchmarkJSON
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(specs) {
		t.Fatalf("%d workloads, program has %d", len(b.Workloads), len(specs))
	}
	for i, w := range b.Workloads {
		if w.Name != specs[i].name || w.Why == "" {
			t.Errorf("workload %d: %q, program has %q", i, w.Name, specs[i].name)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics, program has %d", len(b.EndToEnd), len(endToEnd))
	}
	var setupBound, maxBound float64
	for i, m := range b.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end_to_end %d: %s [%s], program has %s [%s]", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setupBound = m.Bound
		}
		maxBound = max(maxBound, m.Bound)
	}
	if setupBound != maxBound {
		t.Errorf("setup_s bound %v is not the largest (%v)", setupBound, maxBound)
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics, program has %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit || m.Better != perLayer[i].better {
			t.Errorf("per_layer %d: %+v, program has %+v", i, m, perLayer[i])
		}
	}
}

// TestEveryWorkloadRunsClean runs one traced cycle with one open-loop
// phase and the ladder of each workload at a one-second budget: every output check and regime guard
// must pass with no failed operation, and every layer the workload runs
// through must report.
func TestEveryWorkloadRunsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("serves every workload")
	}
	t.Chdir(t.TempDir())
	if err := os.MkdirAll(scratchDir, 0o755); err != nil {
		t.Fatal(err)
	}
	uses := map[string][]string{
		"paths-weighted":      {"core.offer_us", "engine.submit_us", "server.json_decode_ns_per_item", "server.handler_ms_p50"},
		"single-edge-durable": {"core.offer_us", "engine.submit_us", "wire.bytes_per_item", "wal.sync_ms", "wal.records_per_fsync"},
		"cover-repeats":       {"core.offer_us", "coverengine.submit_us", "setcover.arrive_us", "wire.bytes_per_item"},
		"routed-mix":          {"engine.submit_us", "wire.bytes_per_item", "cluster.backend_calls_per_decision", "cluster.cross_partition_frac"},
	}
	for _, sp := range specs {
		t.Run(sp.name, func(t *testing.T) {
			res, err := bench(sp, 3, time.Second, true, 1)
			if err != nil {
				t.Fatal(err)
			}
			if !res.out.Correct || res.out.Failed != 0 || res.out.Attempted == 0 {
				t.Fatalf("correct %v, %d of %d failed", res.out.Correct, res.out.Failed, res.out.Attempted)
			}
			for _, d := range perLayer {
				if _, ok := res.out.Metrics[d.name]; !ok {
					t.Errorf("%s missing", d.name)
				}
			}
			for _, name := range uses[sp.name] {
				if res.out.Metrics[name].Value <= 0 {
					t.Errorf("%s = %v on a workload that uses the layer", name, res.out.Metrics[name].Value)
				}
			}
			if res.out.Metrics["wal.sync_ms"].Value != 0 && sp.name != "single-edge-durable" {
				t.Errorf("wal.sync_ms = %v on a workload without a WAL", res.out.Metrics["wal.sync_ms"].Value)
			}
		})
	}
}
