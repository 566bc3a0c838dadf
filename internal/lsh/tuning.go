package lsh

import "fmt"

// Tuning configures the candidate pipeline layered on top of the basic
// exact-bucket LSH lookup. The zero value reproduces the classic
// pipeline exactly: one probe per table, no sketch prefilter. Both
// mechanisms are bit-deterministic — the probe order is a fixed function
// of the query's hyperplane margins, the sketch of (seed, vector) — so
// tuned indexes replay identically across runs and snapshot round-trips.
type Tuning struct {
	// Probes is the number of buckets examined per table: the query's
	// own bucket plus Probes−1 perturbed buckets, visited in increasing
	// order of perturbation cost (the summed hyperplane margins of the
	// flipped bits — buckets most likely to hide near neighbors come
	// first). 0 or 1 probes only the exact bucket. Multi-probe lets an
	// index reach a T-table configuration's recall with roughly T/2
	// tables, halving signature arithmetic and insert cost.
	Probes int
	// SketchBits enables the packed binary sign sketch: 0 (off), 64, or
	// 128 bits per entry, stored in a flat []uint64 arena. Candidates
	// whose sketch differs from the query's by more than MaxHamming
	// bits are rejected with a popcount — no float math — before any
	// distance computation.
	SketchBits int
	// MaxHamming is the sketch prefilter threshold. 0 selects the
	// default, 3/8 of SketchBits — conservative enough that true
	// nearest neighbors survive (the property tests pin this), tight
	// enough to reject most far candidates in crowded buckets.
	MaxHamming int
}

const (
	// defaultMaxHammingNum/Den set the default prefilter threshold to
	// SketchBits·3/8 (24 of 64 bits): a sign-sketch Hamming distance of
	// 3/8·bits corresponds to an angular gap of ~67°, far beyond any
	// same-scene pair in the cache's feature space.
	defaultMaxHammingNum = 3
	defaultMaxHammingDen = 8
)

// DefaultTuning returns the recommended tuned pipeline: 8 probes per
// table and a 64-bit sketch prefilter. Pair it with half the tables the
// untuned index would use.
func DefaultTuning() Tuning {
	return Tuning{Probes: 8, SketchBits: 64}
}

// Validate reports whether the tuning is usable.
func (t Tuning) Validate() error {
	if t.Probes < 0 {
		return fmt.Errorf("lsh: Probes must be non-negative, got %d", t.Probes)
	}
	switch t.SketchBits {
	case 0, 64, 128:
	default:
		return fmt.Errorf("lsh: SketchBits must be 0, 64, or 128, got %d", t.SketchBits)
	}
	if t.MaxHamming < 0 || t.MaxHamming > t.SketchBits {
		return fmt.Errorf("lsh: MaxHamming must be in [0,%d], got %d", t.SketchBits, t.MaxHamming)
	}
	if t.MaxHamming > 0 && t.SketchBits == 0 {
		return fmt.Errorf("lsh: MaxHamming set without SketchBits")
	}
	return nil
}

// normalize fills in defaults. Called once at index construction.
func (t Tuning) normalize() Tuning {
	if t.Probes <= 0 {
		t.Probes = 1
	}
	if t.SketchBits > 0 && t.MaxHamming == 0 {
		t.MaxHamming = t.SketchBits * defaultMaxHammingNum / defaultMaxHammingDen
	}
	return t
}

// enabled reports whether either tuned mechanism is active (if not, the
// lookup path takes the exact-bucket fast path unchanged).
func (t Tuning) enabled() bool {
	return t.Probes > 1 || t.SketchBits > 0
}
