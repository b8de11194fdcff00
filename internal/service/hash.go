package service

import (
	"math"

	"admission/internal/core"
)

// Hash accumulates a deterministic FNV-1a digest over fixed-width words:
// every input is widened to exactly eight bytes, so the digest is a pure
// function of the mixed values with no seed and no platform dependence.
// It backs the durability layer's state verification (both engines'
// StateDigest and Fingerprint, which WAL directories carry on disk) and
// the cluster ring's placement hash. Start from NewHash.
type Hash uint64

// NewHash returns a Hash at the FNV-1a 64-bit offset basis.
func NewHash() Hash { return 14695981039346656037 }

// Word mixes one 64-bit word, low byte first.
func (h *Hash) Word(v uint64) {
	x := uint64(*h)
	for i := 0; i < 8; i++ {
		x ^= v & 0xff
		x *= 1099511628211
		v >>= 8
	}
	*h = Hash(x)
}

// Int mixes v sign-extended to 64 bits.
func (h *Hash) Int(v int) { h.Word(uint64(int64(v))) }

// Float mixes v's IEEE-754 bit pattern.
func (h *Hash) Float(v float64) { h.Word(math.Float64bits(v)) }

// Bool mixes v as the word 1 or 0.
func (h *Hash) Bool(v bool) {
	if v {
		h.Word(1)
	} else {
		h.Word(0)
	}
}

// Config mixes every decision-steering field of an admission-control
// configuration, in one fixed order shared by both engines' fingerprints.
func (h *Hash) Config(cfg core.Config) {
	h.Bool(cfg.Unweighted)
	h.Float(cfg.LogBase)
	h.Float(cfg.ThresholdFactor)
	h.Float(cfg.ProbFactor)
	h.Int(int(cfg.AlphaMode))
	h.Float(cfg.Alpha)
	h.Float(cfg.DoublingBudgetFactor)
	h.Bool(cfg.DisableReqPruning)
	h.Word(cfg.Seed)
}

// Sum returns the digest.
func (h Hash) Sum() uint64 { return uint64(h) }
