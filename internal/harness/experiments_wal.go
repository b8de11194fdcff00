package harness

import (
	"fmt"
	"os"

	"admission/internal/core"
	"admission/internal/engine"
	"admission/internal/problem"
	"admission/internal/rng"
	"admission/internal/server"
	"admission/internal/wal"
	"admission/internal/workload"
)

// --- E17: crash recovery — the WAL restart is decision-identical ----------
//
// E17 validates the durability layer (internal/wal, DESIGN.md §12) at the
// only level that counts: a real process killed with SIGKILL. The
// experiment re-executes its own binary as a durable acserve-equivalent
// child (the RunChild hook, installed in acbench's main and the harness
// test binary's TestMain), drives it over a one-connection loopback, and
// SIGKILLs it mid-load with an unsnapshotted segment tail on disk. The
// restarted child must recover exactly the acknowledged prefix — group
// commit acknowledges a decision only after fsync, and the parent stops
// submitting before it kills, so recovered == acknowledged with no slack —
// and the decisions it serves from there must be byte-identical, line for
// line, to an uninterrupted golden run of the same seeded engine (the
// E15/E16 identity standard). A final SIGTERM exercises the shutdown
// snapshot, and an in-process read-only fsck replays the whole log into a
// fresh engine whose state digest must equal the golden run's. Acceptance
// (see EXPERIMENTS.md §E17): recovered == acknowledged, both served
// segments identical to golden, and the fsck digest equal to the golden
// digest.

func init() {
	registry = append(registry,
		Experiment{"E17", "Crash recovery: WAL restart decision-identical to an uninterrupted run (DESIGN.md §12)", runE17},
	)
}

// e17Capacity is the uniform edge capacity of the E17 workload.
const e17Capacity = 4

// e17Instance regenerates the experiment's workload: parent and child both
// derive it from the seed alone, so the child never needs the requests
// shipped to it — only the capacities.
func e17Instance(seed uint64, m int) (*problem.Instance, error) {
	_, ins, err := genOverloadedGraph(m, e17Capacity, workload.CostUnit, rng.New(seed))
	return ins, err
}

// e17Engine builds the deterministic engine both runs share.
func e17Engine(caps []int, seed uint64) (*engine.Engine, error) {
	acfg := core.UnweightedConfig()
	acfg.Seed = seed
	return engine.New(caps, engine.Config{Shards: 4, Algorithm: acfg})
}

// e17Durable is the E17 child body: an acserve-equivalent durable
// admission server over whatever the WAL directory holds.
func e17Durable(spec childSpec) (durable, error) {
	ins, err := e17Instance(spec.Seed, spec.Edges)
	if err != nil {
		return durable{}, err
	}
	eng, err := e17Engine(ins.Capacities, spec.Seed)
	if err != nil {
		return durable{}, err
	}
	log, err := wal.Open(spec.Dir, wal.Options{Kind: wal.KindAdmission, Fingerprint: eng.Fingerprint()})
	if err != nil {
		return durable{}, err
	}
	info, err := server.RecoverAdmission(log, eng)
	if err != nil {
		return durable{}, err
	}
	return durable{
		reg:    server.AdmissionDurable(eng, log, server.DurableOptions{SnapshotEvery: spec.SnapEvery, Replay: info}),
		log:    log,
		digest: eng.StateDigest,
		close:  func() { eng.Close() },
	}, nil
}

func runE17(cfg Config) ([]*Table, error) {
	seed := cfg.Seed ^ 0xE17E17
	m := cfg.scaledInt(64, 16)
	ins, err := e17Instance(seed, m)
	if err != nil {
		return nil, err
	}
	n := len(ins.Requests)
	if n < 8 {
		return nil, fmt.Errorf("E17: workload produced only %d requests", n)
	}
	// Snapshot interval small enough that the crash leaves both a snapshot
	// and an unsnapshotted segment tail behind.
	snapEvery := max(int64(n/8), 16)

	// Golden run: the uninterrupted sequential decision stream and final
	// state digest every served segment is held to.
	eng, err := e17Engine(ins.Capacities, seed)
	if err != nil {
		return nil, err
	}
	golden, goldenDigest, err := runDirect(eng, ins.Requests)
	if err != nil {
		return nil, fmt.Errorf("E17: golden run: %w", err)
	}

	dir, err := os.MkdirTemp("", "e17-wal-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	spec := childSpec{Exp: "E17", Dir: dir, Seed: seed, Edges: m, SnapEvery: snapEvery}

	// Phase 1: durable child from an empty directory, SIGKILLed once the
	// first half of the stream has been acknowledged.
	acked := n / 2
	c1, err := spawnChild(spec)
	if err != nil {
		return nil, err
	}
	if c1.recovered != 0 {
		c1.kill()
		return nil, fmt.Errorf("E17: fresh child recovered %d decisions from an empty directory", c1.recovered)
	}
	err = admissionIdentical(c1.base, ins.Requests[:acked], golden[:acked])
	c1.kill()
	if err != nil {
		return nil, fmt.Errorf("E17: pre-crash stream: %w", err)
	}

	// Phase 2: restart from the same directory. Group commit acknowledges
	// only fsynced decisions and nothing was in flight at the kill, so the
	// recovered count must equal the acknowledged count exactly.
	c2, err := spawnChild(spec)
	if err != nil {
		return nil, err
	}
	if c2.recovered != int64(acked) {
		c2.kill()
		return nil, fmt.Errorf("E17: recovered %d decisions, %d were acknowledged before SIGKILL", c2.recovered, acked)
	}
	if err := admissionIdentical(c2.base, ins.Requests[acked:], golden[acked:]); err != nil {
		c2.kill()
		return nil, fmt.Errorf("E17: post-crash stream from decision %d: %w", acked, err)
	}
	if err := c2.term(); err != nil {
		return nil, fmt.Errorf("E17: %w", err)
	}

	// Offline fsck: replay the whole log read-only into a fresh engine;
	// its digest must land exactly on the golden run's.
	eng2, err := e17Engine(ins.Capacities, seed)
	if err != nil {
		return nil, err
	}
	defer eng2.Close()
	log, err := wal.Open(dir, wal.Options{Kind: wal.KindAdmission, Fingerprint: eng2.Fingerprint(), ReadOnly: true})
	if err != nil {
		return nil, fmt.Errorf("E17: fsck open: %w", err)
	}
	defer log.Close()
	info, err := server.RecoverAdmission(log, eng2)
	if err != nil {
		return nil, fmt.Errorf("E17: fsck replay: %w", err)
	}
	if total := info.SnapshotSeq + info.TailRecords; total != int64(n) {
		return nil, fmt.Errorf("E17: fsck replayed %d decisions, served %d", total, n)
	}
	fsckDigest := eng2.StateDigest()
	if fsckDigest != goldenDigest {
		return nil, fmt.Errorf("E17: fsck digest %016x, golden %016x", fsckDigest, goldenDigest)
	}

	t := &Table{
		ID:      "E17",
		Title:   "Crash recovery: WAL restart decision-identical to an uninterrupted run (DESIGN.md §12)",
		Columns: []string{"phase", "decisions", "vs golden"},
	}
	t.AddRow("golden direct run", fmt.Sprint(n), "—")
	t.AddRow("served, then SIGKILL", fmt.Sprint(acked), "identical prefix")
	t.AddRow("recovered on restart", fmt.Sprint(c2.recovered), "== acknowledged")
	t.AddRow("served after restart", fmt.Sprint(n-acked), "identical continuation")
	t.AddRow("fsck replay (read-only)", fmt.Sprint(info.SnapshotSeq+info.TailRecords),
		fmt.Sprintf("digest %016x == golden", fsckDigest))
	t.AddNote("child = this binary re-executed as a durable loopback server (%d edges, 4 shards, snapshot every %d decisions)", m, snapEvery)
	t.AddNote("every served decision was compared line by line (id, accepted, cross-shard, preempted) against the golden stream")
	t.AddNote("acceptance: recovered == acknowledged, both served segments identical to golden, fsck digest equal — PASS")
	return []*Table{t}, nil
}
