// Package harness defines and runs the reproduction experiments E1–E20 (see
// DESIGN.md §4): for each theorem of the paper it measures empirical
// competitive ratios against offline optima across parameter sweeps, fits
// the predicted scaling law, and renders tables (ASCII for the terminal, CSV
// for plotting). E11 additionally validates the sharded serving engine
// (DESIGN.md §5) against the unsharded algorithm it parallelizes, E14
// validates the network-facing serving layer (DESIGN.md §7) against the
// engine it fronts, E15 validates the set cover serving path (DESIGN.md §9)
// against the sequential §4 reduction, E16 validates the binary wire
// protocol (DESIGN.md §11), E17 validates WAL crash recovery
// (DESIGN.md §12), E18 validates the local-computation query tier
// (DESIGN.md §13) against the streaming engine it reconstructs, E19 the
// cluster tier (DESIGN.md §14) and E20 live operations (DESIGN.md §15).
// E17 and E19 SIGKILL a re-executed durable server child: binaries hosting
// the suite must call RunChild when ChildEnv is set.
//
// The paper has no empirical section, so these experiments *are* the
// reproduction targets: each checks that the measured ratio of the §2/§3/§5
// algorithms scales as the corresponding theorem predicts and that the
// qualitative claims (zero-rejection property, preemption necessity,
// baseline crossovers) hold.
//
// Concurrency contract: RunAll and each Experiment.Run are safe to call
// from one goroutine at a time; internally sweeps fan out over
// Config.Workers goroutines, with every sweep point deriving an
// independent RNG from the config seed, so tables are deterministic
// regardless of scheduling.
package harness

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"strings"
	"sync"

	"admission/internal/problem"
	"admission/internal/stats"
	"admission/internal/trace"
)

// Config scales the experiment suite.
type Config struct {
	// Seed drives all randomness; identical configs reproduce identical
	// tables.
	Seed uint64
	// Reps is the number of repetitions averaged per sweep point
	// (default 5).
	Reps int
	// Scale multiplies instance sizes; 1 is the full published size, tests
	// use smaller values (default 1).
	Scale float64
	// Workers bounds sweep parallelism (default GOMAXPROCS).
	Workers int
	// Check runs the trace verifier inside measurements (default on via
	// DefaultConfig; it is cheap relative to the LP solves).
	Check bool
}

// DefaultConfig returns the full-size experiment configuration.
func DefaultConfig() Config {
	return Config{Seed: 1, Reps: 5, Scale: 1, Workers: 0, Check: true}
}

func (c Config) reps() int {
	if c.Reps <= 0 {
		return 5
	}
	return c.Reps
}

func (c Config) scale() float64 {
	if c.Scale <= 0 {
		return 1
	}
	return c.Scale
}

func (c Config) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// scaledInt applies the scale factor with a floor.
func (c Config) scaledInt(base, min int) int {
	v := int(float64(base) * c.scale())
	if v < min {
		return min
	}
	return v
}

// Table is one experiment output (a "table or figure" in paper terms; the
// figure-like outputs are series tables with an x column and a fit note).
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// AddNote appends a free-text note (fit verdicts, caveats).
func (t *Table) AddNote(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// ASCII renders the table with aligned columns.
func (t *Table) ASCII() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// CSV renders the table as RFC-4180-ish CSV (quotes only when needed).
func (t *Table) CSV() string {
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteByte(',')
			}
			if strings.ContainsAny(cell, ",\"\n") {
				b.WriteByte('"')
				b.WriteString(strings.ReplaceAll(cell, `"`, `""`))
				b.WriteByte('"')
			} else {
				b.WriteString(cell)
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// Experiment couples an id with its runner.
type Experiment struct {
	ID, Title string
	Run       func(cfg Config) ([]*Table, error)
}

var registry = []Experiment{
	{"E1", "Fractional algorithm ratio vs log(mc) (Thm 2)", runE1},
	{"E2", "Randomized weighted ratio vs log²(mc) (Thm 3)", runE2},
	{"E3", "Randomized unweighted ratio vs log m·log c (Thm 4)", runE3},
	{"E4", "Online set cover with repetitions via reduction (§4)", runE4},
	{"E5", "Deterministic bicriteria set cover (Thm 7)", runE5},
	{"E6", "Baseline comparison: BKK greedy and preemptive heuristics", runE6},
	{"E7", "Zero-rejection property: OPT=0 ⇒ ON=0", runE7},
	{"E8", "Ablation: threshold/probability constants", runE8},
	{"E9", "Ablation: α oracle vs guess-and-double (§2)", runE9},
	{"E10", "Preemption necessity: adaptive adversaries ([10] lower bound)", runE10},
	{"E11", "Sharded engine: ratio degradation vs shard count", runE11},
}

// Registry lists all experiments in order.
func Registry() []Experiment { return append([]Experiment(nil), registry...) }

// Lookup finds an experiment by id (case-insensitive).
func Lookup(id string) (Experiment, bool) {
	for _, e := range registry {
		if strings.EqualFold(e.ID, id) {
			return e, true
		}
	}
	return Experiment{}, false
}

// RunAll executes every experiment, writing ASCII tables to w as they
// complete. It returns all tables.
func RunAll(cfg Config, w io.Writer) ([]*Table, error) {
	var all []*Table
	for _, e := range registry {
		tables, err := e.Run(cfg)
		if err != nil {
			return all, fmt.Errorf("%s: %w", e.ID, err)
		}
		for _, t := range tables {
			if w != nil {
				fmt.Fprintln(w, t.ASCII())
			}
			all = append(all, t)
		}
	}
	return all, nil
}

// parallelEach runs fn(i) for i in [0, n) on a bounded worker pool and
// returns the first error. fn must be safe to call concurrently; each point
// derives its own RNG from the config seed, keeping output deterministic
// regardless of scheduling.
func parallelEach(n, workers int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	if workers <= 0 || workers > n {
		workers = n
	}
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				if err := fn(i); err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
				}
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	return firstErr
}

// runMeasured executes an algorithm over an instance under the trace
// verifier and returns the rejected cost.
func runMeasured(alg problem.Algorithm, ins *problem.Instance, check bool) (float64, *trace.Result, error) {
	res, err := trace.Run(alg, ins, trace.Options{Check: check})
	if err != nil {
		return 0, nil, err
	}
	return res.RejectedCost, res, nil
}

// ratioCell formats a summary of ratios as "mean ± ci".
func ratioCell(s *stats.Summary) string {
	return fmt.Sprintf("%.3f ± %.3f", s.Mean(), s.CI95())
}

// fitNote fits ys against xs and renders the standard verdict line.
func fitNote(label string, xs, ys []float64) string {
	f, err := stats.Fit(xs, ys)
	if err != nil {
		return fmt.Sprintf("%s: fit unavailable (%v)", label, err)
	}
	return fmt.Sprintf("%s: %s", label, f.String())
}

// growthNote classifies the series' growth in the control parameter and
// phrases the verdict relative to the theorem's prediction: the theorems
// bound the ratio by O(control parameter), so flat or logarithmic growth in
// it is consistent, while linear is at the bound and super-linear would
// falsify the implementation.
func growthNote(xs, ys []float64) string {
	fit, err := stats.ClassifyGrowth(xs, ys, 0)
	if err != nil {
		return fmt.Sprintf("growth classification unavailable (%v)", err)
	}
	verdict := "consistent with the theorem's bound"
	switch fit.Class {
	case stats.GrowthLinear:
		verdict = "at the theorem's bound (ratio linear in the control parameter)"
	case stats.GrowthPower:
		verdict = "check fit exponent against the bound"
	}
	return fmt.Sprintf("growth vs control parameter: %s (%s, R²=%.2f) — %s",
		fit.Class, fit.Desc, fit.R2, verdict)
}

// sortedKeys returns map keys in sorted order (determinism helper).
func sortedKeys[K int | string, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}
