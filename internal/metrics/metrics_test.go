package metrics

import (
	"math/rand"
	"sort"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestSourcesOrder(t *testing.T) {
	ss := Sources()
	if len(ss) != 7 || ss[0] != SourceIMU || ss[4] != SourceDNN || ss[5] != SourceFallback || ss[6] != SourceShed {
		t.Fatalf("Sources = %v", ss)
	}
}

func TestLatencyRecorderEmpty(t *testing.T) {
	r := new(LatencyRecorder)
	if r.Count() != 0 || r.Mean() != 0 || r.Percentile(50) != 0 {
		t.Fatal("empty recorder not zeroed")
	}
	s := r.Summary()
	if s.Count != 0 || s.Mean != 0 || s.Max != 0 {
		t.Fatalf("empty summary = %+v", s)
	}
}

func TestLatencyRecorderNegativeClamped(t *testing.T) {
	r := new(LatencyRecorder)
	r.Record(-time.Second)
	if r.Mean() != 0 {
		t.Fatalf("negative sample not clamped: %v", r.Mean())
	}
}

func TestLatencyRecorderStats(t *testing.T) {
	r := new(LatencyRecorder)
	for i := 1; i <= 100; i++ {
		r.Record(time.Duration(i) * time.Millisecond)
	}
	if r.Count() != 100 {
		t.Fatalf("Count = %d", r.Count())
	}
	if m := r.Mean(); m != 50500*time.Microsecond {
		t.Fatalf("Mean = %v", m)
	}
	if p := r.Percentile(50); !withinBucket(p, 50*time.Millisecond) {
		t.Fatalf("P50 = %v", p)
	}
	if p := r.Percentile(90); !withinBucket(p, 90*time.Millisecond) {
		t.Fatalf("P90 = %v", p)
	}
	if p := r.Percentile(0); p != time.Millisecond {
		t.Fatalf("P0 = %v", p)
	}
	if p := r.Percentile(100); p != 100*time.Millisecond {
		t.Fatalf("P100 = %v", p)
	}
	s := r.Summary()
	if s.Count != 100 || s.Mean != 50500*time.Microsecond || s.Max != 100*time.Millisecond ||
		!withinBucket(s.P99, 99*time.Millisecond) {
		t.Fatalf("summary = %+v", s)
	}
	if s.String() == "" {
		t.Fatal("empty String()")
	}
}

func TestLatencyRecorderInterleavedRecordAndQuery(t *testing.T) {
	r := new(LatencyRecorder)
	r.Record(3 * time.Millisecond)
	_ = r.Percentile(50)
	r.Record(1 * time.Millisecond)
	if p := r.Percentile(0); p != time.Millisecond {
		t.Fatalf("min after re-record = %v", p)
	}
}

// Property: percentiles are monotone in p and bounded by min/max.
func TestPercentileMonotoneProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		r := new(LatencyRecorder)
		var min, max time.Duration = 1 << 62, 0
		for _, v := range raw {
			d := time.Duration(v) * time.Microsecond
			r.Record(d)
			if d < min {
				min = d
			}
			if d > max {
				max = d
			}
		}
		prev := time.Duration(-1)
		for p := 0.0; p <= 100; p += 7 {
			v := r.Percentile(p)
			if v < prev || v < min || v > max {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// withinBucket reports whether a histogram answer is the exact value
// rounded up by at most one sub-bucket (6.25 %).
func withinBucket(got, exact time.Duration) bool {
	return got >= exact && got-exact <= exact/16
}

// Percentile matches a straightforward nearest-rank reference to within
// one sub-bucket (the exact-match version of this test lives with the
// exact recorder in internal/eval).
func TestPercentileAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	r := new(LatencyRecorder)
	var ref []time.Duration
	for i := 0; i < 137; i++ {
		d := time.Duration(rng.Intn(1000)) * time.Millisecond
		r.Record(d)
		ref = append(ref, d)
	}
	sort.Slice(ref, func(i, j int) bool { return ref[i] < ref[j] })
	for _, p := range []float64{10, 25, 50, 75, 95} {
		rank := int(p/100*float64(len(ref))+0.5) - 1
		if rank < 0 {
			rank = 0
		}
		if got := r.Percentile(p); !withinBucket(got, ref[rank]) {
			t.Fatalf("P%v = %v, ref %v", p, got, ref[rank])
		}
	}
}

func TestSessionStats(t *testing.T) {
	s := NewSessionStats()
	if s.HitRate() != 0 || s.Accuracy() != 0 {
		t.Fatal("empty stats not zeroed")
	}
	s.ObserveFrame(SourceIMU, time.Millisecond, 0, true)
	s.ObserveFrame(SourceDNN, 120*time.Millisecond, 350, true)
	s.ObserveFrame(SourceLocal, 5*time.Millisecond, 1, false)
	s.ObserveFrame(SourcePeer, 15*time.Millisecond, 10, true)

	if s.Frames() != 4 {
		t.Fatalf("Frames = %d", s.Frames())
	}
	if hr := s.HitRate(); hr != 0.75 {
		t.Fatalf("HitRate = %v", hr)
	}
	if acc := s.Accuracy(); acc != 0.75 {
		t.Fatalf("Accuracy = %v", acc)
	}
	if e := s.EnergyMJ(); e != 361 {
		t.Fatalf("Energy = %v", e)
	}
	counts := s.CountBySource()
	if counts[SourceIMU] != 1 || counts[SourceDNN] != 1 {
		t.Fatalf("counts = %v", counts)
	}
	counts[SourceIMU] = 99
	if s.CountBySource()[SourceIMU] != 1 {
		t.Fatal("CountBySource exposes internal map")
	}
	if s.Latency().Count() != 4 {
		t.Fatalf("latency samples = %d", s.Latency().Count())
	}
}

func TestPeerQueryAccounting(t *testing.T) {
	s := NewSessionStats()
	s.Add(EventPeerQuery, 3)
	s.Add(EventPeerHit, 2)
	q, h := s.PeerQueries()
	if q != 3 || h != 2 {
		t.Fatalf("peer queries = %d/%d", h, q)
	}
}

func TestSessionStatsConcurrent(t *testing.T) {
	s := NewSessionStats()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 250; i++ {
				s.ObserveFrame(SourceLocal, time.Millisecond, 1, i%2 == 0)
				s.Add(EventPeerQuery, 1)
			}
		}()
	}
	wg.Wait()
	if s.Frames() != 1000 {
		t.Fatalf("Frames = %d", s.Frames())
	}
	if s.Latency().Count() != 1000 {
		t.Fatalf("latency count = %d", s.Latency().Count())
	}
	if q, _ := s.PeerQueries(); q != 1000 {
		t.Fatalf("peer queries = %d", q)
	}
}

func TestSensorFaultCounters(t *testing.T) {
	s := NewSessionStats()
	if s.SensorFaultTotal() != 0 || len(s.SensorFaults()) != 0 {
		t.Fatal("fresh stats not zeroed")
	}
	s.ObserveSensorFault("imu-stuck")
	s.ObserveSensorFault("imu-stuck")
	s.ObserveSensorFault("frame-low-entropy")
	faults := s.SensorFaults()
	if faults["imu-stuck"] != 2 || faults["frame-low-entropy"] != 1 {
		t.Fatalf("faults = %v", faults)
	}
	if s.SensorFaultTotal() != 3 {
		t.Fatalf("total = %d", s.SensorFaultTotal())
	}
	faults["imu-stuck"] = 99 // returned map must be a copy
	if s.SensorFaults()["imu-stuck"] != 2 {
		t.Fatal("SensorFaults returned internal map")
	}
}

func TestDegradedServeCounters(t *testing.T) {
	s := NewSessionStats()
	s.Add(EventDegradedServe, 2)
	s.Add(EventDegradedServe, 1)
	s.Add(EventDegradedServe, 0)
	s.Add(EventDegradedServe, -5) // counters only go up
	if s.DegradedServeTotal() != 3 {
		t.Fatalf("total = %d", s.DegradedServeTotal())
	}
}

func TestWatchdogCounters(t *testing.T) {
	s := NewSessionStats()
	s.Add(EventWatchdogTimeout, 1)
	s.Add(EventWatchdogRetry, 1)
	s.Add(EventWatchdogRetry, 1)
	s.Add(EventWatchdogTrip, 1)
	s.Add(EventWatchdogRecovery, 1)
	s.Add(EventWatchdogFastFail, 4)
	timeouts, retries, trips, recoveries, fastFails := s.WatchdogEvents()
	if timeouts != 1 || retries != 2 || trips != 1 || recoveries != 1 || fastFails != 4 {
		t.Fatalf("events = %d %d %d %d %d", timeouts, retries, trips, recoveries, fastFails)
	}
}
