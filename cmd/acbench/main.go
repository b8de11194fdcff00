// Command acbench regenerates the reproduction experiments E1–E20 (see
// DESIGN.md §4 and EXPERIMENTS.md): empirical competitive-ratio sweeps for
// every theorem of Alon–Azar–Gutner (SPAA 2005), with scaling-law fits,
// plus the systems validation experiments — the sharded engine (E11,
// DESIGN.md §5), the serving loopbacks (E14–E16, §§7–11), WAL crash
// recovery (E17, §12), the query tier (E18, §13), the cluster tier (E19,
// §14) and live operations (E20, §15). E17 and E19 re-execute this binary
// as a durable server child (harness.RunChild) and SIGKILL it.
//
// Usage:
//
//	acbench                      # run everything at full scale, ASCII tables
//	acbench -exp E3              # one experiment
//	acbench -exp E11             # sharded engine: ratio vs shard count
//	acbench -list                # list experiments
//	acbench -scale 0.5 -reps 3   # faster, smaller
//	acbench -csv out/            # additionally write one CSV per table
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"admission/internal/harness"
)

func main() {
	// E17 and E19 re-execute this binary as their durable-server children.
	if os.Getenv(harness.ChildEnv) != "" {
		harness.RunChild()
	}
	var (
		expID   = flag.String("exp", "", "experiment id to run (default: all)")
		list    = flag.Bool("list", false, "list experiments and exit")
		seed    = flag.Uint64("seed", 1, "master seed")
		reps    = flag.Int("reps", 5, "repetitions per sweep point")
		scale   = flag.Float64("scale", 1, "instance size scale factor")
		workers = flag.Int("workers", 0, "parallel workers (0 = GOMAXPROCS)")
		csvDir  = flag.String("csv", "", "directory to write per-table CSV files")
		plots   = flag.Bool("plots", false, "render ASCII scaling figures for sweep tables")
		noCheck = flag.Bool("nocheck", false, "disable the per-step feasibility verifier")
	)
	flag.Parse()

	if *list {
		for _, e := range harness.Registry() {
			fmt.Printf("%-4s %s\n", e.ID, e.Title)
		}
		return
	}

	cfg := harness.Config{
		Seed:    *seed,
		Reps:    *reps,
		Scale:   *scale,
		Workers: *workers,
		Check:   !*noCheck,
	}

	var experiments []harness.Experiment
	if *expID == "" {
		experiments = harness.Registry()
	} else {
		e, ok := harness.Lookup(*expID)
		if !ok {
			fmt.Fprintf(os.Stderr, "acbench: unknown experiment %q (try -list)\n", *expID)
			os.Exit(2)
		}
		experiments = []harness.Experiment{e}
	}

	exitCode := 0
	for _, e := range experiments {
		tables, err := e.Run(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "acbench: %s failed: %v\n", e.ID, err)
			exitCode = 1
			continue
		}
		for _, t := range tables {
			fmt.Println(t.ASCII())
			if *plots {
				if fig := sweepFigure(t); fig != nil {
					fmt.Println(fig.ASCII())
				}
			}
			if *csvDir != "" {
				if err := writeCSV(*csvDir, t); err != nil {
					fmt.Fprintf(os.Stderr, "acbench: %v\n", err)
					exitCode = 1
				}
			}
		}
	}
	os.Exit(exitCode)
}

// sweepFigure renders the scaling figure for tables that have a control-
// parameter column (named "log2(...)") followed by a ratio column; other
// tables return nil.
func sweepFigure(t *harness.Table) *harness.Figure {
	xCol, ratioCol := -1, -1
	for i, c := range t.Columns {
		if strings.HasPrefix(c, "log2(") && xCol == -1 {
			xCol = i
		}
		if strings.HasPrefix(c, "ratio") && ratioCol == -1 {
			ratioCol = i
		}
	}
	if xCol == -1 || ratioCol == -1 || ratioCol < xCol {
		return nil
	}
	fig, err := harness.FigureFromTable(t, xCol, ratioCol, t.Columns[xCol])
	if err != nil {
		return nil
	}
	return fig
}

// writeCSV stores one table as <dir>/<sanitized-id>.csv.
func writeCSV(dir string, t *harness.Table) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	name := strings.NewReplacer("/", "-", " ", "_").Replace(t.ID) + ".csv"
	return os.WriteFile(filepath.Join(dir, name), []byte(t.CSV()), 0o644)
}
