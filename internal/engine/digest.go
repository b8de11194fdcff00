package engine

import "math"

// fnv64 accumulates a deterministic FNV-1a digest over fixed-width words.
// It backs the durability layer's state verification (StateDigest,
// Fingerprint): the digest must be a pure function of the mixed values, so
// every input is widened to exactly eight bytes before hashing.
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
func (h *fnv64) bool(v bool) {
	if v {
		h.word(1)
	} else {
		h.word(0)
	}
}

// Fingerprint identifies the engine's configuration for the durability
// layer (internal/wal): a decision log records the history of one exact
// engine shape — capacity vector, edge partition, algorithm constants,
// seed — and replaying it into any other engine would silently produce a
// different state, so wal.Open refuses a log whose stored fingerprint
// differs. Two engines built from the same capacities and Config always
// agree.
func (e *Engine) Fingerprint() string {
	return fingerprintOf(e.caps, e.rt.Len(), e.edgeShard, e.algCfg)
}

// StateDigest returns a deterministic digest of the engine's decision
// state: the global counters, every shard's accounting, and the full load
// and effective-capacity vectors. Two engines that processed identical
// per-shard request streams (including admin resizes, which serialize
// through the same shard loops) report equal digests, which is what makes
// recovery provable — the durability layer stamps the digest into each
// snapshot and compares it after replaying the compacted prefix into a
// fresh engine. Hashing the capacities also makes the digest sensitive to
// live resizes: a resize that is a semantic no-op (grow then shrink back
// with no arrivals in between) leaves the digest unchanged, while any
// net capacity change moves it. Meaningful only at a quiescent point (no
// submissions in flight), where the same consistency caveats as Stats
// vanish.
func (e *Engine) StateDigest() uint64 {
	var h fnv64 = fnvOffset
	h.int(e.rt.Len())
	h.word(uint64(e.requests.Load()))
	h.word(uint64(e.accepted.Load()))
	h.word(uint64(e.crossShard.Load()))
	h.word(uint64(e.crossAccepted.Load()))
	h.float(e.crossRejected.Load())
	for _, snap := range e.snapshots() {
		h.int(snap.requests)
		h.int(snap.preemptions)
		h.float(snap.rejectedCost)
		h.int(len(snap.loads))
		for _, load := range snap.loads {
			h.int(load)
		}
		for _, c := range snap.caps {
			h.int(c)
		}
	}
	return uint64(h)
}
