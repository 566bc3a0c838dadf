package metrics

import (
	"fmt"
	"math"
	"math/bits"
	"sync"
	"time"
)

// LatencySummary is a set of summary statistics over recorded latencies.
type LatencySummary struct {
	Count int
	Mean  time.Duration
	P50   time.Duration
	P90   time.Duration
	P99   time.Duration
	Max   time.Duration
}

// String formats the summary compactly.
func (s LatencySummary) String() string {
	return fmt.Sprintf("n=%d mean=%v p50=%v p90=%v p99=%v max=%v",
		s.Count, s.Mean, s.P50, s.P90, s.P99, s.Max)
}

// Histogram layout: durations below subBuckets ns have a bucket each;
// above that every power-of-two octave [2^e, 2^(e+1)) is cut into
// subBuckets equal parts, so a bucket is never wider than 1/16 of its
// lower edge. The last bucket also takes everything past the range.
const (
	subBits    = 4
	subBuckets = 1 << subBits
	// octaves covers [0, 2^43) ns ≈ 2.4 h: one linear run of
	// subBuckets, then exponents subBits … 42.
	octaves    = 40
	numBuckets = octaves * subBuckets
)

// LatencyRecorder accumulates latency samples in fixed memory: a
// log-linear histogram held inline, so recording never allocates and
// the recorder's size does not depend on how many samples it has seen.
// Count, Mean, the minimum (Percentile(0)) and Max are exact;
// percentiles in between are the upper edge of the bucket holding the
// nearest-rank sample, clamped to Max — never below the exact value and
// at most 6.25 % above it. Samples of 2^43 ns and longer share the last
// bucket, which is answered with Max. The zero value is an empty
// recorder; it is safe for concurrent use.
type LatencyRecorder struct {
	mu       sync.Mutex
	count    int
	total    time.Duration
	min, max time.Duration
	buckets  [numBuckets]uint32
}

// bucketOf returns the histogram bucket of a non-negative duration.
func bucketOf(d time.Duration) int {
	v := uint64(d)
	if v < subBuckets {
		return int(v)
	}
	shift := bits.Len64(v) - 1 - subBits
	if i := (shift+1)<<subBits | int(v>>shift)&(subBuckets-1); i < numBuckets {
		return i
	}
	return numBuckets - 1
}

// bucketMax returns the longest duration bucketOf maps to bucket i
// (for the last bucket: the longest inside the histogram's range).
func bucketMax(i int) time.Duration {
	if i < subBuckets {
		return time.Duration(i)
	}
	shift := i>>subBits - 1
	return time.Duration(uint64(subBuckets+i&(subBuckets-1)+1)<<shift - 1)
}

// recordLocked adds one sample. Negative samples are clamped to zero.
func (r *LatencyRecorder) recordLocked(d time.Duration) {
	if d < 0 {
		d = 0
	}
	if r.count == 0 || d < r.min {
		r.min = d
	}
	if d > r.max {
		r.max = d
	}
	r.count++
	r.total += d
	// A bucket that has seen 2^32-1 samples stops counting rather than
	// wrapping; Count and Mean stay exact.
	if b := &r.buckets[bucketOf(d)]; *b != math.MaxUint32 {
		*b++
	}
}

// Count returns the number of samples.
func (r *LatencyRecorder) Count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.count
}

// Mean returns the mean sample, or 0 with no samples.
func (r *LatencyRecorder) Mean() time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.meanLocked()
}

func (r *LatencyRecorder) meanLocked() time.Duration {
	if r.count == 0 {
		return 0
	}
	return r.total / time.Duration(r.count)
}

// Percentile returns the p-th percentile (p in [0,100]) by the
// nearest-rank method at the histogram's resolution, or 0 with no
// samples. p <= 0 and p >= 100 return the exact minimum and maximum.
func (r *LatencyRecorder) Percentile(p float64) time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.percentileLocked(p)
}

func (r *LatencyRecorder) percentileLocked(p float64) time.Duration {
	if r.count == 0 {
		return 0
	}
	if p <= 0 {
		return r.min
	}
	if p >= 100 {
		return r.max
	}
	rank := int(p/100*float64(r.count)+0.5) - 1
	cum := 0
	for i := bucketOf(r.min); i < numBuckets-1; i++ {
		cum += int(r.buckets[i])
		if cum > rank {
			if v := bucketMax(i); v < r.max {
				return v
			}
			break
		}
	}
	return r.max
}

// Summary returns all summary statistics at once.
func (r *LatencyRecorder) Summary() LatencySummary {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.count == 0 {
		return LatencySummary{}
	}
	return LatencySummary{
		Count: r.count,
		Mean:  r.meanLocked(),
		P50:   r.percentileLocked(50),
		P90:   r.percentileLocked(90),
		P99:   r.percentileLocked(99),
		Max:   r.max,
	}
}
