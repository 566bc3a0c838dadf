package eval

import (
	"sort"
	"time"

	"approxcache/internal/metrics"
)

// exactRecorder keeps every latency sample and answers exact
// nearest-rank percentiles. The engine's metrics.LatencyRecorder is a
// fixed-memory histogram accurate to 6.25 %; the experiment tables that
// print percentiles (E1) are fed from each frame's Result.Latency
// instead, so they do not depend on the histogram's resolution. A
// replay steps one device at a time, so there is no lock.
type exactRecorder struct {
	samples []time.Duration
	sorted  bool
	total   time.Duration
}

// record adds one sample. Negative samples are clamped to zero.
func (r *exactRecorder) record(d time.Duration) {
	if d < 0 {
		d = 0
	}
	r.samples = append(r.samples, d)
	r.total += d
	r.sorted = false
}

// percentile returns the p-th percentile (p in [0,100]) using the
// nearest-rank method, or 0 with no samples.
func (r *exactRecorder) percentile(p float64) time.Duration {
	if !r.sorted {
		sort.Slice(r.samples, func(i, j int) bool { return r.samples[i] < r.samples[j] })
		r.sorted = true
	}
	return nearestRank(r.samples, p)
}

// nearestRank returns the p-th percentile (p in [0,100]) of ascending
// samples by the nearest-rank method, or 0 with no samples.
func nearestRank(sorted []time.Duration, p float64) time.Duration {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	// p ≤ 100 keeps the rank at most n-1.
	rank := int(p/100*float64(n)+0.5) - 1
	if rank < 0 {
		rank = 0
	}
	return sorted[rank]
}

// summary returns all summary statistics at once.
func (r *exactRecorder) summary() metrics.LatencySummary {
	n := len(r.samples)
	if n == 0 {
		return metrics.LatencySummary{}
	}
	return metrics.LatencySummary{
		Count: n,
		Mean:  r.total / time.Duration(n),
		P50:   r.percentile(50),
		P90:   r.percentile(90),
		P99:   r.percentile(99),
		Max:   r.percentile(100),
	}
}
