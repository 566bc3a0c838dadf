package metrics

import (
	"encoding/binary"
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"
	"unsafe"
)

// checkAgainstExact records samples into a fresh recorder and into a
// sorted slice (the exact nearest-rank recorder this type replaced) and
// asserts the histogram's contract: Count, Mean, min and Max exact,
// percentiles monotone, never below the exact value and at most one
// sub-bucket above it — or equal to Max once the rank lands in the
// open-ended last bucket.
func checkAgainstExact(t *testing.T, samples []time.Duration) {
	t.Helper()
	r := new(LatencyRecorder)
	ref := make([]time.Duration, 0, len(samples))
	var total time.Duration
	for _, d := range samples {
		r.Record(d)
		if d < 0 {
			d = 0
		}
		ref = append(ref, d)
		total += d
	}
	n := len(ref)
	if n == 0 {
		if r.Summary() != (LatencySummary{}) || r.Percentile(50) != 0 {
			t.Fatalf("empty recorder: %+v", r.Summary())
		}
		return
	}
	sort.Slice(ref, func(i, j int) bool { return ref[i] < ref[j] })
	lo, hi := ref[0], ref[n-1]
	sum := r.Summary()
	if r.Count() != n || sum.Count != n {
		t.Fatalf("Count = %d / %d, want %d", r.Count(), sum.Count, n)
	}
	if want := total / time.Duration(n); r.Mean() != want || sum.Mean != want {
		t.Fatalf("Mean = %v / %v, want %v", r.Mean(), sum.Mean, want)
	}
	if sum.Max != hi || r.Percentile(100) != hi || r.Percentile(0) != lo {
		t.Fatalf("min/max = %v/%v (summary max %v), want %v/%v", r.Percentile(0), r.Percentile(100), sum.Max, lo, hi)
	}
	prev := lo
	for _, p := range []float64{0.001, 1, 10, 25, 50, 75, 90, 95, 99, 99.9, 99.999} {
		rank := int(p/100*float64(n)+0.5) - 1
		if rank < 0 {
			rank = 0
		}
		exact, got := ref[rank], r.Percentile(p)
		if got < prev || got > hi {
			t.Fatalf("P%v = %v: not monotone (prev %v) or beyond max %v", p, got, prev, hi)
		}
		prev = got
		if exact > bucketMax(numBuckets-2) {
			if got != hi {
				t.Fatalf("P%v = %v: rank past the histogram's range must answer Max %v", p, got, hi)
			}
		} else if !withinBucket(got, exact) {
			t.Fatalf("P%v = %v, exact %v: off by more than one sub-bucket", p, got, exact)
		}
	}
	if sum.P50 != r.Percentile(50) || sum.P90 != r.Percentile(90) || sum.P99 != r.Percentile(99) {
		t.Fatalf("summary %+v disagrees with Percentile", sum)
	}
}

// adversarial durations: zero, negative, 1 ns, every bucket's two
// edges, and values beyond the histogram's range up to MaxInt64.
func adversarialSamples() []time.Duration {
	out := []time.Duration{0, -1, math.MinInt64, 1, math.MaxInt64, math.MaxInt64 - 1, 1 << 43, 1<<43 - 1, 1 << 62}
	for i := 0; i < numBuckets; i++ {
		out = append(out, bucketMax(i), bucketMax(i)+1)
	}
	return out
}

func TestHistogramMatchesExactRecorder(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	adv := adversarialSamples()
	checkAgainstExact(t, nil)
	checkAgainstExact(t, adv)
	for _, d := range adv {
		checkAgainstExact(t, []time.Duration{d})
	}
	for round := 0; round < 300; round++ {
		n := 1 + rng.Intn(400)
		samples := make([]time.Duration, n)
		// Log-uniform magnitudes, so every octave gets traffic; a few
		// rounds mix in edges and out-of-range values. Magnitudes stay
		// under 2^52 so the exact total cannot wrap with 400 samples.
		for i := range samples {
			switch {
			case round%5 == 0 && rng.Intn(4) == 0:
				samples[i] = adv[rng.Intn(len(adv))] >> 12
			default:
				samples[i] = time.Duration(rng.Int63() >> uint(11+rng.Intn(53)))
			}
		}
		checkAgainstExact(t, samples)
	}
}

func FuzzLatencyRecorder(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 1, 0x7f, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	edges := make([]byte, 0, 64)
	for _, d := range []time.Duration{15, 16, 17, 31, 32, 1<<43 - 1, 1 << 43, -7} {
		edges = binary.BigEndian.AppendUint64(edges, uint64(d))
	}
	f.Add(edges)
	f.Fuzz(func(t *testing.T, raw []byte) {
		samples := make([]time.Duration, 0, len(raw)/8)
		for ; len(raw) >= 8; raw = raw[8:] {
			samples = append(samples, time.Duration(binary.BigEndian.Uint64(raw)))
		}
		checkAgainstExact(t, samples)
	})
}

// Every duration lands in exactly the bucket whose range holds it, and
// ranges tile [0, 2^43) without gaps.
func TestBucketLayout(t *testing.T) {
	if numBuckets != 640 || unsafe.Sizeof(LatencyRecorder{}.buckets) != 2560 {
		t.Fatalf("layout: %d buckets, %d B", numBuckets, unsafe.Sizeof(LatencyRecorder{}.buckets))
	}
	if top := bucketMax(numBuckets - 1); top != 1<<43-1 || top < time.Hour {
		t.Fatalf("range ends at %v", top)
	}
	prevMax := time.Duration(-1)
	for i := 0; i < numBuckets; i++ {
		lo, hi := prevMax+1, bucketMax(i)
		if bucketOf(lo) != i || bucketOf(hi) != i {
			t.Fatalf("bucket %d [%d,%d]: bucketOf = %d, %d", i, lo, hi, bucketOf(lo), bucketOf(hi))
		}
		if width := hi - lo + 1; lo >= subBuckets && width*subBuckets > lo {
			t.Fatalf("bucket %d [%d,%d] wider than 1/16 of its lower edge", i, lo, hi)
		}
		prevMax = hi
	}
	if bucketOf(prevMax+1) != numBuckets-1 || bucketOf(math.MaxInt64) != numBuckets-1 {
		t.Fatal("samples past the range must saturate into the last bucket")
	}
}

func TestSaturatedSamplesKeepExactMax(t *testing.T) {
	r := new(LatencyRecorder)
	r.Record(time.Millisecond)
	r.Record(5 * time.Hour)
	r.Record(9 * time.Hour)
	if got := r.Summary(); got.Max != 9*time.Hour || got.Count != 3 || got.P99 != 9*time.Hour {
		t.Fatalf("summary = %+v", got)
	}
	if p := r.Percentile(50); p != 9*time.Hour {
		t.Fatalf("P50 = %v: the open-ended bucket answers with Max", p)
	}
	if p := r.Percentile(10); !withinBucket(p, time.Millisecond) {
		t.Fatalf("P10 = %v", p)
	}
}

func TestCountBySourceOnlyObserved(t *testing.T) {
	s := NewSessionStats()
	if got := s.CountBySource(); len(got) != 0 {
		t.Fatalf("fresh stats: %v", got)
	}
	s.ObserveFrame(SourceVideo, time.Millisecond, 0, false)
	s.ObserveFrame(SourceShed, time.Millisecond, 0, false)
	s.ObserveFrame(SourceShed, time.Millisecond, 0, false)
	s.ObserveFrame(Source("custom"), time.Millisecond, 0, true)
	got := s.CountBySource()
	if len(got) != 3 || got[SourceVideo] != 1 || got[SourceShed] != 2 || got["custom"] != 1 {
		t.Fatalf("counts = %v", got)
	}
	if _, ok := got[SourceDNN]; ok {
		t.Fatal("unobserved source present")
	}
	if s.Frames() != 4 || s.HitRate() != 1 || s.Accuracy() != 0.25 {
		t.Fatalf("frames %d hit-rate %v accuracy %v", s.Frames(), s.HitRate(), s.Accuracy())
	}
	for i, src := range Sources() {
		if src.ordinal() != i {
			t.Fatalf("%s ordinal = %d, want %d", src, src.ordinal(), i)
		}
	}
}

func TestEventNames(t *testing.T) {
	seen := map[string]Event{}
	for e := Event(0); e < NumEvents; e++ {
		name := e.String()
		if name == "" || name == "unknown" {
			t.Fatalf("event %d has no name", e)
		}
		if prev, dup := seen[name]; dup {
			t.Fatalf("events %d and %d share the name %q", prev, e, name)
		}
		seen[name] = e
	}
	if NumEvents.String() != "unknown" {
		t.Fatal("out-of-range event must not index the name table")
	}
	s := NewSessionStats()
	s.Add(EventShed, 2)
	s.ObserveSensorFault("imu-stuck")
	c := s.Counts()
	if c[EventShed] != 2 || c[EventSensorFault] != 1 || s.Count(EventShed) != 2 {
		t.Fatalf("table = %v", c)
	}
}

// The engine's accounting is fixed-size: observing a frame allocates
// nothing, and the only memory a SessionStats ever owns is the struct
// itself (a compile-time size) plus the sensor-fault class map.
func TestObserveFrameFixedMemory(t *testing.T) {
	if sz := unsafe.Sizeof(LatencyRecorder{}); sz > 4096 {
		t.Fatalf("LatencyRecorder is %d B, budget 4096", sz)
	}
	s := NewSessionStats()
	srcs := Sources()
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		for k := 0; k < 1000; k++ {
			i++
			s.ObserveFrame(srcs[i%len(srcs)], time.Duration(i)*time.Microsecond, 1, i%2 == 0)
		}
		s.Add(EventRepair, 1)
	})
	if allocs != 0 {
		t.Fatalf("ObserveFrame allocates: %v allocs per 1000 frames", allocs)
	}
	if s.Frames() < 1_000_000 || s.Latency().Count() != s.Frames() {
		t.Fatalf("frames = %d, latency samples = %d", s.Frames(), s.Latency().Count())
	}
}

// A frame is recorded in one critical section, so no reader can catch
// the latency sample without its frame or source count (at the parent
// commit the sample was recorded under a different mutex first).
func TestObserveFrameNotTorn(t *testing.T) {
	s := NewSessionStats()
	const writers, perWriter = 4, 5000
	srcs := Sources()
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				s.ObserveFrame(srcs[(g+i)%5], time.Duration(i)*time.Microsecond, 1, true)
			}
		}(g)
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		before := s.Latency().Count()
		frames := s.Frames()
		bySource := 0
		for _, n := range s.CountBySource() {
			bySource += n
		}
		after := s.Latency().Count()
		if frames < before || bySource < frames || after < bySource {
			t.Fatalf("torn read: samples %d ≤ frames %d ≤ by-source %d ≤ samples %d violated", before, frames, bySource, after)
		}
		if acc := s.Accuracy(); frames > 0 && acc != 1 {
			t.Fatalf("accuracy %v with every frame correct", acc)
		}
	}
	if s.Frames() != writers*perWriter || s.Latency().Count() != writers*perWriter {
		t.Fatalf("frames %d, samples %d", s.Frames(), s.Latency().Count())
	}
}

func BenchmarkHotPathObserveFrame(b *testing.B) {
	srcs := Sources()
	b.Run("single", func(b *testing.B) {
		s := NewSessionStats()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.ObserveFrame(srcs[i%len(srcs)], time.Duration(i&0xfffff)*time.Microsecond, 1.5, i&1 == 0)
		}
	})
	b.Run("parallel", func(b *testing.B) {
		s := NewSessionStats()
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			for i := 0; pb.Next(); i++ {
				s.ObserveFrame(srcs[i%len(srcs)], time.Duration(i&0xfffff)*time.Microsecond, 1.5, i&1 == 0)
			}
		})
	})
}
