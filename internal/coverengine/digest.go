package coverengine

import (
	"fmt"
	"math"
)

// fnv64 accumulates a deterministic FNV-1a digest over fixed-width words:
// every input is widened to eight bytes so the digest is a pure function
// of the mixed values.
type fnv64 uint64

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func (h *fnv64) word(v uint64) {
	x := uint64(*h)
	for i := 0; i < 8; i++ {
		x ^= v & 0xff
		x *= fnvPrime
		v >>= 8
	}
	*h = fnv64(x)
}

func (h *fnv64) int(v int)       { h.word(uint64(int64(v))) }
func (h *fnv64) float(v float64) { h.word(math.Float64bits(v)) }

// Fingerprint identifies the cover engine's configuration for the
// durability layer (internal/wal): the set system, element partition,
// mode, slack and seeds all steer decisions, so a decision log is
// replayable only into an engine that matches on every one of them.
// wal.Open refuses a log whose stored fingerprint differs.
func (e *Engine) Fingerprint() string {
	var h fnv64 = fnvOffset
	h.int(e.ins.N)
	h.int(e.ins.M())
	for id, set := range e.ins.Sets {
		h.float(e.ins.Cost(id))
		h.int(len(set))
		for _, el := range set {
			h.int(el)
		}
	}
	h.int(e.rt.Len())
	for _, s := range e.elemShard {
		h.int(int(s))
	}
	h.int(int(e.mode))
	h.word(e.seed)
	h.float(e.eps)
	if e.coreCfg != nil {
		cfg := *e.coreCfg
		h.word(1)
		if cfg.Unweighted {
			h.word(1)
		} else {
			h.word(0)
		}
		h.float(cfg.LogBase)
		h.float(cfg.ThresholdFactor)
		h.float(cfg.ProbFactor)
		h.int(int(cfg.AlphaMode))
		h.float(cfg.Alpha)
		h.float(cfg.DoublingBudgetFactor)
		if cfg.DisableReqPruning {
			h.word(1)
		} else {
			h.word(0)
		}
		h.word(cfg.Seed)
	} else {
		h.word(0)
	}
	return fmt.Sprintf("cover/v1 n=%d m=%d k=%d mode=%v seed=%d cfg=%016x", e.ins.N, e.ins.M(), e.rt.Len(), e.mode, e.seed, uint64(h))
}

// StateDigest returns a deterministic digest of the cover engine's
// decision state: the arrival counters, the global chosen ledger, and
// every shard's accounting including its per-element arrival counts. Two
// engines that served identical per-shard arrival streams report equal
// digests; the durability layer stamps it into snapshots and verifies it
// after recovery replay. Meaningful only at a quiescent point (no
// arrivals in flight).
func (e *Engine) StateDigest() uint64 {
	var h fnv64 = fnvOffset
	h.int(e.rt.Len())
	h.word(uint64(e.seq.Load()))
	h.word(uint64(e.arrivals.Load()))
	h.word(uint64(e.errs.Load()))
	e.mu.Lock()
	h.int(e.chosenCount)
	h.float(e.cost)
	for _, c := range e.chosen {
		if c {
			h.word(1)
		} else {
			h.word(0)
		}
	}
	e.mu.Unlock()
	for _, snap := range e.snapshots() {
		h.int(snap.arrivals)
		h.int(snap.preemptions)
		h.int(snap.augmentations)
		h.word(snap.countDigest)
	}
	return uint64(h)
}
