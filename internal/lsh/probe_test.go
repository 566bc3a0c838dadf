package lsh

import (
	"math/bits"
	"math/rand"
	"testing"

	"approxcache/internal/feature"
)

// probeSeq materializes the full probe sequence for one (sig, margins)
// pair using fresh scratch, the way nearestTuned drives probeGen.
func probeSeq(sig uint64, absMargins []float64, n int) []uint64 {
	nbits := len(absMargins)
	var g probeGen
	g.init(sig, nbits,
		append([]float64(nil), absMargins...),
		make([]float64, nbits),
		make([]int, nbits),
		nil)
	var out []uint64
	for len(out) < n {
		s, ok := g.next()
		if !ok {
			break
		}
		out = append(out, s)
	}
	return out
}

// TestProbeSequenceExhaustive checks the shift/expand generator against
// its contract on a small signature space: the unperturbed bucket comes
// first, every perturbation of the nbits-bit signature is visited
// exactly once, and perturbation costs (summed flipped margins) never
// decrease along the sequence.
func TestProbeSequenceExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		const nbits = 5
		margins := make([]float64, nbits)
		for b := range margins {
			margins[b] = rng.Float64()
		}
		sig := rng.Uint64() & (1<<nbits - 1)
		seq := probeSeq(sig, margins, 1<<nbits+8)
		if len(seq) != 1<<nbits {
			t.Fatalf("trial %d: got %d probes, want %d", trial, len(seq), 1<<nbits)
		}
		if seq[0] != sig {
			t.Fatalf("trial %d: first probe %x, want unperturbed %x", trial, seq[0], sig)
		}
		seen := make(map[uint64]bool, len(seq))
		prev := -1.0
		for i, s := range seq {
			if seen[s] {
				t.Fatalf("trial %d: probe %d revisits signature %x", trial, i, s)
			}
			seen[s] = true
			var cost float64
			for m := s ^ sig; m != 0; m &= m - 1 {
				cost += margins[bits.TrailingZeros64(m)]
			}
			if cost < prev-1e-12 {
				t.Fatalf("trial %d: probe %d cost %g after %g", trial, i, cost, prev)
			}
			prev = cost
		}
	}
}

// TestProbeSequenceDeterministic pins the sequence bit-for-bit across
// regenerations, including under duplicated margins where only the
// mask/bit-index tie-breaks fix the order.
func TestProbeSequenceDeterministic(t *testing.T) {
	margins := []float64{0.3, 0.1, 0.3, 0.1, 0.2, 0.1}
	first := probeSeq(0x2a, margins, 1<<len(margins))
	for run := 0; run < 10; run++ {
		again := probeSeq(0x2a, margins, 1<<len(margins))
		if len(again) != len(first) {
			t.Fatalf("run %d: length %d, want %d", run, len(again), len(first))
		}
		for i := range first {
			if again[i] != first[i] {
				t.Fatalf("run %d: probe %d = %x, want %x", run, i, again[i], first[i])
			}
		}
	}
}

// clusteredVecs builds the hit-heavy population the tuned pipeline
// targets: all-positive cluster centers (image-descriptor-like), entries
// scattered sigma around a center, queries perturbing resident entries
// by qsigma.
func clusteredVecs(rng *rand.Rand, n, dim, clusters int, sigma float64) []feature.Vector {
	centers := make([]feature.Vector, clusters)
	for c := range centers {
		centers[c] = make(feature.Vector, dim)
		for d := range centers[c] {
			centers[c][d] = rng.Float64()
		}
	}
	out := make([]feature.Vector, n)
	for i := range out {
		v := make(feature.Vector, dim)
		center := centers[i%clusters]
		for d := range v {
			v[d] = center[d] + rng.NormFloat64()*sigma
		}
		out[i] = v
	}
	return out
}

func perturb(rng *rand.Rand, v feature.Vector, sigma float64) feature.Vector {
	q := make(feature.Vector, len(v))
	for d := range q {
		q[d] = v[d] + rng.NormFloat64()*sigma
	}
	return q
}

// checkKeepSet asserts the pipeline's safety property on one seeded
// hit-heavy dataset: any exact top-k neighbor that the multi-probe walk
// surfaces as a candidate must survive the default Hamming prefilter —
// i.e. the sketch stage may only drop junk, never a true neighbor the
// probes found.
func checkKeepSet(t *testing.T, seed int64, sigma, qsigma float64) {
	t.Helper()
	const (
		dim      = 16
		n        = 256
		clusters = 32
		k        = 4
		bits     = 8
		tables   = 2
		probes   = 4
		queries  = 32
	)
	rng := rand.New(rand.NewSource(seed))
	vecs := clusteredVecs(rng, n, dim, clusters, sigma)

	exact, err := NewExact(dim)
	if err != nil {
		t.Fatal(err)
	}
	tunedCfg := DefaultTuning()
	tunedCfg.Probes = probes
	tuned, err := NewHyperplaneTuned(dim, bits, tables, seed, tunedCfg)
	if err != nil {
		t.Fatal(err)
	}
	// Same seed, same probe walk, but a pass-everything Hamming
	// threshold: its candidate set is the raw multi-probe walk the
	// prefilter must not over-trim.
	rawCfg := Tuning{Probes: probes, SketchBits: tunedCfg.SketchBits}
	rawCfg.MaxHamming = tunedCfg.SketchBits
	raw, err := NewHyperplaneTuned(dim, bits, tables, seed, rawCfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range vecs {
		for _, idx := range []Index{exact, tuned, raw} {
			if err := idx.Insert(ID(i), v); err != nil {
				t.Fatal(err)
			}
		}
	}

	nbuf := make([]Neighbor, 0, k)
	cbuf := make([]ID, 0, n)
	for qi := 0; qi < queries; qi++ {
		q := perturb(rng, vecs[rng.Intn(n)], qsigma)
		truth, err := exact.Nearest(q, k)
		if err != nil {
			t.Fatal(err)
		}
		cands, err := raw.CandidatesInto(q, cbuf)
		if err != nil {
			t.Fatal(err)
		}
		inWalk := make(map[ID]bool, len(cands))
		for _, id := range cands {
			inWalk[id] = true
		}
		got, err := tuned.NearestInto(q, k, nbuf)
		if err != nil {
			t.Fatal(err)
		}
		kept := make(map[ID]bool, len(got))
		for _, nb := range got {
			kept[nb.ID] = true
		}
		for _, tr := range truth {
			if inWalk[tr.ID] && !kept[tr.ID] {
				t.Fatalf("seed %d sigma %g qsigma %g query %d: exact neighbor %d (dist %g) surfaced by the probe walk but dropped by the prefilter",
					seed, sigma, qsigma, qi, tr.ID, tr.Distance)
			}
		}
		nbuf, cbuf = got[:0], cands[:0]
	}
}

// TestPrefilterKeepSetProperty runs the keep-set property over several
// seeds and spreads, pinning the default MaxHamming choice.
func TestPrefilterKeepSetProperty(t *testing.T) {
	for _, seed := range []int64{1, 7, 42, 1234} {
		checkKeepSet(t, seed, 0.03, 0.01)
		checkKeepSet(t, seed, 0.01, 0.005)
	}
}

// FuzzPrefilterKeepSet fuzzes the same property across dataset seeds
// and spreads (clamped to the near-duplicate regime the threshold is
// specified for).
func FuzzPrefilterKeepSet(f *testing.F) {
	f.Add(int64(1), uint8(30), uint8(10))
	f.Add(int64(99), uint8(5), uint8(2))
	f.Add(int64(-3), uint8(49), uint8(27))
	f.Fuzz(func(t *testing.T, seed int64, sigmaMil, qsigmaMil uint8) {
		sigma := 0.005 + float64(sigmaMil%46)/1000
		qsigma := 0.002 + float64(qsigmaMil%28)/1000
		checkKeepSet(t, seed, sigma, qsigma)
	})
}

// recallAgainst measures idx's top-k recall against exact ground truth
// over the given queries.
func recallAgainst(t *testing.T, idx Index, exact Index, queries []feature.Vector, k int) float64 {
	t.Helper()
	hits, want := 0, 0
	for _, q := range queries {
		truth, err := exact.Nearest(q, k)
		if err != nil {
			t.Fatal(err)
		}
		got, err := idx.Nearest(q, k)
		if err != nil {
			t.Fatal(err)
		}
		for _, tr := range truth {
			want++
			for _, nb := range got {
				if nb.ID == tr.ID {
					hits++
					break
				}
			}
		}
	}
	return float64(hits) / float64(want)
}

// TestMultiProbeRecallSweep pins the tentpole's table-halving claim on
// a fragmented-bucket workload (signed Gaussian clusters, where plain
// LSH actually misses): multi-probe at T/2 tables must reach at least
// the exact-bucket recall at T tables, and recall must be monotone in
// the probe count (more probes visit a superset of buckets).
func TestMultiProbeRecallSweep(t *testing.T) {
	const (
		dim     = 32
		n       = 512
		k       = 2
		bits    = 10
		tables  = 4
		seed    = 17
		queries = 128
	)
	rng := rand.New(rand.NewSource(seed))
	centers := make([]feature.Vector, 64)
	for c := range centers {
		centers[c] = make(feature.Vector, dim)
		for d := range centers[c] {
			centers[c][d] = rng.NormFloat64()
		}
	}
	vecs := make([]feature.Vector, n)
	for i := range vecs {
		v := make(feature.Vector, dim)
		for d := range v {
			v[d] = centers[i%len(centers)][d] + rng.NormFloat64()*0.05
		}
		vecs[i] = v
	}
	// Queries drift well off their source entry (still far closer to its
	// cluster than to any other), so single-bucket lookups genuinely
	// miss and recall separates the configurations.
	qs := make([]feature.Vector, queries)
	for i := range qs {
		qs[i] = perturb(rng, vecs[rng.Intn(n)], 0.15)
	}

	exact, err := NewExact(dim)
	if err != nil {
		t.Fatal(err)
	}
	base, err := NewHyperplane(dim, bits, tables, seed)
	if err != nil {
		t.Fatal(err)
	}
	indexes := []Index{exact, base}
	probeCounts := []int{1, 2, 4, 8, 16}
	multi := make([]*HyperplaneIndex, len(probeCounts))
	for i, p := range probeCounts {
		m, err := NewHyperplaneTuned(dim, bits, tables/2, seed, Tuning{Probes: p})
		if err != nil {
			t.Fatal(err)
		}
		multi[i] = m
		indexes = append(indexes, m)
	}
	for i, v := range vecs {
		for _, idx := range indexes {
			if err := idx.Insert(ID(i), v); err != nil {
				t.Fatal(err)
			}
		}
	}

	baseRecall := recallAgainst(t, base, exact, qs, k)
	if baseRecall >= 1 {
		t.Fatalf("base recall %.3f: workload too easy to discriminate", baseRecall)
	}
	prev := -1.0
	for i, p := range probeCounts {
		r := recallAgainst(t, multi[i], exact, qs, k)
		t.Logf("probes=%2d tables=%d recall=%.3f (base tables=%d recall=%.3f)",
			p, tables/2, r, tables, baseRecall)
		if r < prev {
			t.Fatalf("recall not monotone in probes: %.3f at probes=%d after %.3f", r, p, prev)
		}
		prev = r
		if p >= tables && r < baseRecall {
			t.Errorf("multi-probe probes=%d at %d tables recall %.3f below exact-bucket at %d tables %.3f",
				p, tables/2, r, tables, baseRecall)
		}
	}
}

// TestMultiProbeExhaustiveMatchesExact: with probes covering the whole
// signature space of every table, the candidate walk sees every entry,
// so the tuned pipeline (sketch prefilter off) must reproduce the exact
// index verbatim.
func TestMultiProbeExhaustiveMatchesExact(t *testing.T) {
	const (
		dim  = 8
		bits = 4
		n    = 128
		k    = 3
	)
	rng := rand.New(rand.NewSource(5))
	exact, err := NewExact(dim)
	if err != nil {
		t.Fatal(err)
	}
	all, err := NewHyperplaneTuned(dim, bits, 1, 5, Tuning{Probes: 1 << bits})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		v := randVec(rng, dim)
		if err := exact.Insert(ID(i), v); err != nil {
			t.Fatal(err)
		}
		if err := all.Insert(ID(i), v); err != nil {
			t.Fatal(err)
		}
	}
	for qi := 0; qi < 64; qi++ {
		q := randVec(rng, dim)
		want, err := exact.Nearest(q, k)
		if err != nil {
			t.Fatal(err)
		}
		got, err := all.Nearest(q, k)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("query %d: %d neighbors, want %d", qi, len(got), len(want))
		}
		for i := range want {
			if got[i].ID != want[i].ID || got[i].Distance != want[i].Distance {
				t.Fatalf("query %d neighbor %d: got (%d, %v), want (%d, %v)",
					qi, i, got[i].ID, got[i].Distance, want[i].ID, want[i].Distance)
			}
		}
	}
}

// TestTunedRecomputeOnReinsert pins the recompute-on-import contract:
// sketches are pure functions of (seed, vector), so
// an index whose arena slots were churned by remove/re-insert must
// answer bit-identically to a freshly built one.
func TestTunedRecomputeOnReinsert(t *testing.T) {
	const (
		dim = 12
		n   = 200
		k   = 4
	)
	rng := rand.New(rand.NewSource(23))
	vecs := clusteredVecs(rng, n, dim, 10, 0.03)

	fresh, err := NewHyperplaneTuned(dim, 8, 2, 23, DefaultTuning())
	if err != nil {
		t.Fatal(err)
	}
	churned, err := NewHyperplaneTuned(dim, 8, 2, 23, DefaultTuning())
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range vecs {
		if err := fresh.Insert(ID(i), v); err != nil {
			t.Fatal(err)
		}
		if err := churned.Insert(ID(i), v); err != nil {
			t.Fatal(err)
		}
	}
	// Churn half the population so re-inserted vectors land in recycled
	// arena slots with stale sketch bytes behind them.
	for i := 0; i < n; i += 2 {
		churned.Remove(ID(i))
	}
	for i := 0; i < n; i += 2 {
		if err := churned.Insert(ID(i), vecs[i]); err != nil {
			t.Fatal(err)
		}
	}
	for qi := 0; qi < 50; qi++ {
		q := perturb(rng, vecs[rng.Intn(n)], 0.01)
		want, err := fresh.Nearest(q, k)
		if err != nil {
			t.Fatal(err)
		}
		got, err := churned.Nearest(q, k)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("query %d: %d neighbors, want %d", qi, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("query %d neighbor %d: got %+v, want %+v", qi, i, got[i], want[i])
			}
		}
	}
}
