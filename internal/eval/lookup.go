package eval

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"approxcache/internal/feature"
	"approxcache/internal/lsh"
)

// The lookup-bound benchmark: a warm, heavily reused cache where the
// serving cost is the index lookup itself, not the DNN. The E20
// throughput benchmark is inference-bound by design (misses occupy a
// serial accelerator), which makes store/index wins invisible — every
// store shape it ever ran posted the same unbatched fps because all of
// them wait on the model. This harness removes the model entirely: it builds the
// index at cache steady state, drives queries that are small
// perturbations of resident entries (the approximate-caching hit case),
// and measures ns/op, recall against exact ground truth, and warm-path
// allocations for two index configurations:
//
//   - base:  the classic exact-bucket pipeline at bits × T tables;
//   - tuned: the multi-probe + sketch pipeline at T/2 tables, which
//     reaches the same recall for less arithmetic.
//
// The report is written to BENCH_lookup.json and enforced by
// cmd/benchgate's lookup gate: tuned must beat base by a minimum ns/op
// ratio at equal-or-better recall with zero warm-path allocations.

// The lookup benchmark's shape.
const (
	// lookupDim matches the production extractor.
	lookupDim = 80
	// lookupClusters is the number of scene clusters the population is
	// drawn from: entries within a cluster are near-duplicates,
	// reproducing the crowded buckets of a high-reuse cache.
	lookupClusters = 64
	// lookupK is the kNN width, the homogenized-vote width.
	lookupK = 4
	// lookupBits is the per-table signature width.
	lookupBits = 12
	// lookupTables is the BASE table count; the tuned configuration
	// runs half as many.
	lookupTables = 4
	// lookupProbes is the tuned configuration's per-table probe count:
	// the ns/op sweet spot on this workload; more probes buy recall the
	// workload already saturates while flooding the candidate stage, and
	// recall holds from 2 probes up.
	lookupProbes = 3
	// lookupMaxHamming tightens the tuned sketch's Hamming cut below the
	// conservative default: near-duplicate neighbors land within a
	// handful of sketch bits, while cross-cluster junk sits near bits/2,
	// so 16/64 still clears true neighbors by several sigma while
	// rejecting most of the crowd before any float math.
	lookupMaxHamming = 16
	// lookupClusterSigma is the per-dimension spread of entries around
	// their cluster center (near-duplicate scenes); lookupQuerySigma the
	// perturbation between a query and the resident entry it reuses.
	lookupClusterSigma = 0.02
	lookupQuerySigma   = 0.01
)

// LookupResult is one index configuration's measurement.
type LookupResult struct {
	Name       string  `json:"name"`
	Tables     int     `json:"tables"`
	Probes     int     `json:"probes"`
	SketchBits int     `json:"sketch_bits"`
	NsPerOp    float64 `json:"ns_per_op"`
	// Recall is the fraction of exact top-k neighbors the
	// configuration returned, averaged over all queries.
	Recall float64 `json:"recall"`
	// AllocsPerOp is the measured warm-path heap allocations per
	// lookup (gated to 0).
	AllocsPerOp float64 `json:"allocs_per_op"`
	// Candidates is the mean candidate-set size per query (post
	// prefilter for the tuned configuration).
	Candidates float64 `json:"candidates"`
}

// LookupReport is the full benchmark outcome, serialized to
// BENCH_lookup.json and gated by cmd/benchgate.
type LookupReport struct {
	Entries int            `json:"entries"`
	Dim     int            `json:"dim"`
	Queries int            `json:"queries"`
	K       int            `json:"k"`
	Bits    int            `json:"bits"`
	Results []LookupResult `json:"results"`
	// Speedup is base ns/op over tuned ns/op — the number the
	// regression gate enforces.
	Speedup float64 `json:"speedup"`
	// RecallBase/RecallTuned restate the two recalls the gate compares.
	RecallBase  float64 `json:"recall_base"`
	RecallTuned float64 `json:"recall_tuned"`
}

// lookupDataset is the shared population + query set + exact ground
// truth all configurations are measured against.
type lookupDataset struct {
	vecs    []feature.Vector
	queries []feature.Vector
	truth   [][]lsh.ID // exact top-k IDs per query
}

func buildLookupDataset(seed int64, entries, queries int) (*lookupDataset, error) {
	rng := rand.New(rand.NewSource(seed))
	centers := make([]feature.Vector, lookupClusters)
	for c := range centers {
		centers[c] = make(feature.Vector, lookupDim)
		for d := range centers[c] {
			centers[c][d] = rng.Float64() // all-positive, like image descriptors
		}
	}
	ds := &lookupDataset{vecs: make([]feature.Vector, entries)}
	for i := range ds.vecs {
		ds.vecs[i] = jitter(centers[i%lookupClusters], rng, lookupClusterSigma)
	}
	// Queries perturb resident entries: the hit-heavy case where the
	// nearest neighbor is the reused cached result.
	ds.queries = make([]feature.Vector, queries)
	for i := range ds.queries {
		ds.queries[i] = jitter(ds.vecs[rng.Intn(entries)], rng, lookupQuerySigma)
	}
	var err error
	ds.truth, err = exactTruth(lookupDim, ds.vecs, ds.queries, lookupK)
	return ds, err
}

// measureLookup loads ds into idx and measures recall, warm
// allocations, and mean candidate-set size. Timing happens separately
// in timeLookupPair so both configurations sample the same machine
// conditions.
func measureLookup(ds *lookupDataset, idx *lsh.HyperplaneIndex) (LookupResult, error) {
	for i, v := range ds.vecs {
		if err := idx.Insert(lsh.ID(i), v); err != nil {
			return LookupResult{}, err
		}
	}
	buf := make([]lsh.Neighbor, 0, lookupK)
	idBuf := make([]lsh.ID, 0, len(ds.vecs))

	// Recall + candidate stats (untimed pass).
	var hits, want, cands int
	for i, q := range ds.queries {
		nn, err := idx.NearestInto(q, lookupK, buf)
		if err != nil {
			return LookupResult{}, err
		}
		for _, t := range ds.truth[i] {
			want++
			for _, n := range nn {
				if n.ID == t {
					hits++
					break
				}
			}
		}
		ids, err := idx.CandidatesInto(q, idBuf)
		if err != nil {
			return LookupResult{}, err
		}
		cands += len(ids)
	}

	// Warm-path allocations: the pass above warmed every pool; a
	// steady-state lookup must not allocate.
	q0 := ds.queries[0]
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := idx.NearestInto(q0, lookupK, buf); err != nil {
			panic(err)
		}
	})

	tun := idx.TuningConfig()
	return LookupResult{
		Tables:      idx.Tables(),
		Probes:      tun.Probes,
		SketchBits:  tun.SketchBits,
		Recall:      float64(hits) / float64(want),
		AllocsPerOp: allocs,
		Candidates:  float64(cands) / float64(len(ds.queries)),
	}, nil
}

// timeLookupPair runs reps timed passes for both configurations in
// strict alternation. The per-op figure is the MINIMUM over passes:
// each pass is hundreds of lookups (long enough to average
// micro-jitter), and the minimum discards passes inflated by transient
// machine load. Alternating a/b within each rep matters as much as the
// min: machine throughput drifts on a seconds scale, and alternation
// guarantees both configurations sample the same windows, so the
// RATIO — the number the gate enforces — stays stable even when
// absolute timings wander.
func timeLookupPair(ds *lookupDataset, reps int, a, b *lsh.HyperplaneIndex) (nsA, nsB float64, err error) {
	buf := make([]lsh.Neighbor, 0, lookupK)
	pass := func(idx *lsh.HyperplaneIndex) (time.Duration, error) {
		start := time.Now()
		for _, q := range ds.queries {
			if _, err := idx.NearestInto(q, lookupK, buf); err != nil {
				return 0, err
			}
		}
		return time.Since(start), nil
	}
	const maxDur = time.Duration(1<<63 - 1)
	bestA, bestB := maxDur, maxDur
	for rep := 0; rep < reps; rep++ {
		da, err := pass(a)
		if err != nil {
			return 0, 0, err
		}
		db, err := pass(b)
		if err != nil {
			return 0, 0, err
		}
		bestA, bestB = min(bestA, da), min(bestB, db)
	}
	n := float64(len(ds.queries))
	return float64(bestA.Nanoseconds()) / n, float64(bestB.Nanoseconds()) / n, nil
}

// runLookup measures the base and tuned index configurations over the
// same dataset and computes the headline speedup: 4 096 entries, 256
// queries and 30 timed passes, or a quarter-size population, 128
// queries and 8 passes at a small scale.
func runLookup(s Scale) (LookupReport, error) {
	entries, queries, reps := 4096, 256, 30
	if s.small() {
		entries, queries, reps = 1024, 128, 8
	}
	ds, err := buildLookupDataset(s.Seed, entries, queries)
	if err != nil {
		return LookupReport{}, err
	}
	rep := LookupReport{Entries: entries, Dim: lookupDim, Queries: queries, K: lookupK, Bits: lookupBits}

	// Both configurations run the production default: uncentered
	// hyperplanes over all-positive descriptors. Their shared mean
	// correlates table signatures, so buckets are crowded with
	// cross-cluster junk — exactly the regime the sketch prefilter
	// exists for (the sketch's zero-sum hyperplanes are immune to the
	// uniform-offset component that crowds the tables).
	base, err := lsh.NewHyperplane(lookupDim, lookupBits, lookupTables, s.Seed)
	if err != nil {
		return LookupReport{}, err
	}
	baseRes, err := measureLookup(ds, base)
	if err != nil {
		return LookupReport{}, fmt.Errorf("base: %w", err)
	}
	baseRes.Name = "exact-bucket"

	tuning := lsh.DefaultTuning()
	tuning.Probes = lookupProbes
	tuning.MaxHamming = lookupMaxHamming
	tuned, err := lsh.NewHyperplaneTuned(lookupDim, lookupBits, lookupTables/2, s.Seed, tuning)
	if err != nil {
		return LookupReport{}, err
	}
	tunedRes, err := measureLookup(ds, tuned)
	if err != nil {
		return LookupReport{}, fmt.Errorf("tuned: %w", err)
	}
	tunedRes.Name = "multiprobe-sketch"

	baseRes.NsPerOp, tunedRes.NsPerOp, err = timeLookupPair(ds, reps, base, tuned)
	if err != nil {
		return LookupReport{}, err
	}
	rep.Results = []LookupResult{baseRes, tunedRes}
	if tunedRes.NsPerOp > 0 {
		rep.Speedup = baseRes.NsPerOp / tunedRes.NsPerOp
	}
	rep.RecallBase = baseRes.Recall
	rep.RecallTuned = tunedRes.Recall
	return rep, nil
}

// E22Lookup is the lookup-bound experiment: the before/after table for
// the multi-probe + sketch candidate pipeline.
func E22Lookup(s Scale) (Report, error) {
	rep, err := runLookup(s)
	if err != nil {
		return Report{}, err
	}
	out := Report{
		ID:    "E22",
		Title: "Lookup-bound candidate pipeline: exact-bucket vs multi-probe + sketch",
		Headers: []string{"pipeline", "tables", "probes", "sketch", "ns/op",
			"recall@k", "candidates", "allocs/op"},
		Data: rep,
	}
	for _, r := range rep.Results {
		sketch := "-"
		if r.SketchBits > 0 {
			sketch = fmt.Sprintf("%db", r.SketchBits)
		}
		out.Rows = append(out.Rows, []string{
			r.Name, fmt.Sprintf("%d", r.Tables), fmt.Sprintf("%d", r.Probes),
			sketch, fmtF(r.NsPerOp), fmtPct(r.Recall),
			fmtF(r.Candidates), fmt.Sprintf("%.0f", r.AllocsPerOp),
		})
	}
	out.Notes = append(out.Notes,
		fmt.Sprintf("%d entries (%d clusters) × %d hit-heavy queries, dim %d, k=%d",
			rep.Entries, lookupClusters, rep.Queries, rep.Dim, rep.K),
		fmt.Sprintf("speedup tuned vs base: %.2fx at recall %.3f vs %.3f",
			rep.Speedup, rep.RecallTuned, rep.RecallBase),
	)
	return out, nil
}
