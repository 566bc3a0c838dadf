package eval

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"approxcache/internal/feature"
	"approxcache/internal/lsh"
	"approxcache/internal/vision"
)

// The lookup-bound benchmark: a warm cache where the serving cost is
// the index lookup itself, not the DNN. The E20 throughput benchmark is
// inference-bound by design (misses occupy a serial accelerator), which
// makes store/index wins invisible. This harness removes the model
// entirely and asks, at the shape nodes run, whether the LSH index
// earns its place against a flat exact scan (lsh.ExactIndex):
//
//   - population: descriptors of rendered frames from a 128-class
//     vocabulary, at the default cache capacity (256) and at 1 024;
//   - queries: fresh renders, k = 4 within the vote radius — the
//     lookup the engine makes on every frame past the cheap gates;
//   - shipped: the index every node builds (lsh.NewShipped), seed 1.
//
// It measures ns/op, recall against the flat scan's exact answer,
// candidates scored and warm-path allocations. The report is written
// to BENCH_lookup.json and enforced by cmd/benchgate: the shipped index
// must beat the flat scan by a minimum ns/op ratio at 1 024 entries,
// at a minimum recall, with zero warm-path allocations.

// The lookup benchmark's shape.
const (
	// lookupClasses is the vocabulary the population is rendered from.
	lookupClasses = 128
	// lookupK is the kNN width, the homogenized-vote width.
	lookupK = 4
	// lookupSeed draws the shipped index's hyperplanes, whatever the
	// experiment's seed (which draws the population and queries).
	lookupSeed = 1
	// lookupGatedEntries is the population the speedup is gated at.
	lookupGatedEntries = 1024
)

// lookupSizes are the populations measured: the default cache capacity,
// and the gated one, which is the largest.
var lookupSizes = []int{256, lookupGatedEntries}

// LookupResult is one index's measurement at one population size.
type LookupResult struct {
	Entries int     `json:"entries"`
	Name    string  `json:"name"`
	NsPerOp float64 `json:"ns_per_op"`
	// Recall is the fraction of the flat scan's neighbors within the
	// vote radius that the index returned, over all queries.
	Recall float64 `json:"recall"`
	// Candidates is the mean number of entries scored per query.
	Candidates float64 `json:"candidates"`
	// AllocsPerOp is the measured warm-path heap allocations per
	// lookup (gated to 0).
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// LookupReport is the full benchmark outcome, serialized to
// BENCH_lookup.json and gated by cmd/benchgate.
type LookupReport struct {
	Dim     int            `json:"dim"`
	Classes int            `json:"classes"`
	Queries int            `json:"queries"`
	K       int            `json:"k"`
	Radius  float64        `json:"radius"`
	Bits    int            `json:"bits"`
	Tables  int            `json:"tables"`
	Results []LookupResult `json:"results"`
	// Speedup is the flat scan's ns/op over the shipped index's at
	// 1 024 entries — the number the regression gate enforces.
	Speedup float64 `json:"speedup"`
	// Speedup256 is the same ratio at 256 entries, reported only.
	Speedup256 float64 `json:"speedup_256"`
}

// radiusIndex is what the benchmark drives: both indexes answer the
// engine's radius-bounded lookup.
type radiusIndex interface {
	lsh.Index
	NearestWithinInto(q feature.Vector, k int, radius float64, dst []lsh.Neighbor) ([]lsh.Neighbor, error)
}

// renderDescriptors renders n frames, cycling through the classes of
// cs, and returns their descriptors.
func renderDescriptors(cs *vision.ClassSet, ex feature.Extractor, n int, rng *rand.Rand) []feature.Vector {
	vs := make([]feature.Vector, n)
	for i := range vs {
		vs[i] = must(ex.Extract(must(cs.Render(i%cs.NumClasses(), vision.DefaultPerturbation(), rng))))
	}
	return vs
}

// measureLookup measures idx, loaded with entries vectors, for recall
// against truth (the flat scan's answers), warm allocations and mean
// candidates. Timing happens separately in timeLookupPair so both
// indexes sample the same machine conditions.
func measureLookup(idx radiusIndex, entries int, queries []feature.Vector, truth [][]lsh.Neighbor, radius float64) LookupResult {
	cands, _ := idx.(interface {
		CandidatesInto(feature.Vector, []lsh.ID) ([]lsh.ID, error)
	})
	buf := make([]lsh.Neighbor, 0, lookupK)
	idBuf := make([]lsh.ID, 0, entries)
	var hits, want, scored int
	for i, q := range queries {
		nn := must(idx.NearestWithinInto(q, lookupK, radius, buf))
		for _, t := range truth[i] {
			want++
			for _, n := range nn {
				if n.ID == t.ID {
					hits++
					break
				}
			}
		}
		if cands == nil { // a flat scan scores every entry
			scored += entries
			continue
		}
		scored += len(must(cands.CandidatesInto(q, idBuf)))
	}
	if want == 0 {
		panic(fmt.Sprintf("eval: no query has a neighbor within radius %v", radius))
	}
	// Warm-path allocations: the pass above warmed every pool; a
	// steady-state lookup must not allocate.
	q0 := queries[0]
	allocs := testing.AllocsPerRun(200, func() {
		must(idx.NearestWithinInto(q0, lookupK, radius, buf))
	})
	return LookupResult{
		Entries:     entries,
		Recall:      float64(hits) / float64(want),
		Candidates:  float64(scored) / float64(len(queries)),
		AllocsPerOp: allocs,
	}
}

// timeLookupPair runs reps timed passes for both indexes in strict
// alternation. The per-op figure is the MINIMUM over passes: each pass
// is hundreds of lookups (long enough to average micro-jitter), and the
// minimum discards passes inflated by transient machine load.
// Alternating a/b within each rep matters as much as the min: machine
// throughput drifts on a seconds scale, and alternation guarantees both
// indexes sample the same windows, so the RATIO — the number the gate
// enforces — stays stable even when absolute timings wander.
func timeLookupPair(queries []feature.Vector, radius float64, reps int, a, b radiusIndex) (nsA, nsB float64) {
	buf := make([]lsh.Neighbor, 0, lookupK)
	pass := func(idx radiusIndex) time.Duration {
		start := time.Now()
		for _, q := range queries {
			must(idx.NearestWithinInto(q, lookupK, radius, buf))
		}
		return time.Since(start)
	}
	const maxDur = time.Duration(1<<63 - 1)
	bestA, bestB := maxDur, maxDur
	for rep := 0; rep < reps; rep++ {
		da := pass(a)
		db := pass(b)
		bestA, bestB = min(bestA, da), min(bestB, db)
	}
	n := float64(len(queries))
	return float64(bestA.Nanoseconds()) / n, float64(bestB.Nanoseconds()) / n
}

// runLookup measures the flat scan and the shipped index at every
// population size: 256 queries and 150 timed passes, or 128 queries and
// 8 passes at a small scale.
func runLookup(s Scale) LookupReport {
	queries, reps := 256, 150
	if s.small() {
		queries, reps = 128, 8
	}
	cs := must(vision.NewClassSet(lookupClasses, 48, 48, s.Seed))
	ex := feature.DefaultExtractor()
	rng := rand.New(rand.NewSource(s.Seed))
	// One rendered population; each size takes a prefix of it.
	vecs := renderDescriptors(cs, ex, lookupGatedEntries, rng)
	qs := renderDescriptors(cs, ex, queries, rng)
	radius := lsh.DefaultVoteConfig().MaxDistance
	rep := LookupReport{
		Dim: ex.Dim(), Classes: lookupClasses, Queries: queries, K: lookupK,
		Radius: radius, Bits: lsh.ShippedBits, Tables: lsh.ShippedTables,
	}
	for _, n := range lookupSizes {
		flat := must(lsh.NewExact(ex.Dim()))
		shipped := must(lsh.NewShipped(ex.Dim(), lookupSeed))
		for i, v := range vecs[:n] {
			check(flat.Insert(lsh.ID(i), v))
			check(shipped.Insert(lsh.ID(i), v))
		}
		truth := make([][]lsh.Neighbor, len(qs))
		for i, q := range qs {
			truth[i] = must(flat.NearestWithinInto(q, lookupK, radius, nil))
		}
		flatRes := measureLookup(flat, n, qs, truth, radius)
		flatRes.Name = "flat-scan"
		shipRes := measureLookup(shipped, n, qs, truth, radius)
		shipRes.Name = fmt.Sprintf("lsh-%dx%d", lsh.ShippedBits, lsh.ShippedTables)
		flatRes.NsPerOp, shipRes.NsPerOp = timeLookupPair(qs, radius, reps, flat, shipped)
		rep.Results = append(rep.Results, flatRes, shipRes)
		if shipRes.NsPerOp == 0 {
			continue
		}
		if speedup := flatRes.NsPerOp / shipRes.NsPerOp; n == lookupGatedEntries {
			rep.Speedup = speedup
		} else {
			rep.Speedup256 = speedup
		}
	}
	return rep
}

// E22Lookup is the lookup-bound experiment: the flat exact scan against
// the shipped LSH index at the shape nodes run.
func E22Lookup(s Scale) Report {
	rep := runLookup(s)
	out := Report{
		ID:      "E22",
		Title:   fmt.Sprintf("Lookup-bound: flat exact scan vs the shipped %d-bit × %d-table LSH index", rep.Bits, rep.Tables),
		Headers: []string{"entries", "index", "ns/op", "recall@4", "candidates", "allocs/op"},
		Data:    rep,
	}
	for _, r := range rep.Results {
		out.Rows = append(out.Rows, []string{
			fmt.Sprintf("%d", r.Entries), r.Name, fmtF(r.NsPerOp), fmtPct(r.Recall),
			fmtF(r.Candidates), fmt.Sprintf("%.0f", r.AllocsPerOp),
		})
	}
	out.Notes = append(out.Notes,
		fmt.Sprintf("rendered descriptors from %d classes, dim %d; %d fresh-render queries, k=%d within radius %g",
			rep.Classes, rep.Dim, rep.Queries, rep.K, rep.Radius),
		fmt.Sprintf("speedup shipped vs flat: %.2fx at 1024 entries (gated), %.2fx at 256",
			rep.Speedup, rep.Speedup256),
	)
	return out
}
