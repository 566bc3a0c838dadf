// Package metrics provides the measurement machinery shared by the
// pipeline and the experiment harness: a fixed-memory latency histogram
// (exact count, mean, min and max; percentiles within 6.25 %), one
// table of named event counters, per-source hit accounting, and
// accuracy tracking. Nothing here grows with the number of frames
// observed; exact percentiles live in internal/eval.
package metrics

import "time"

// Source identifies where a frame's recognition result came from. The
// ordering reflects the pipeline's gate order, cheapest first.
type Source string

// Recognition result sources.
const (
	// SourceIMU: reused because the device had not moved.
	SourceIMU Source = "imu"
	// SourceVideo: reused because the frame matched the keyframe.
	SourceVideo Source = "video"
	// SourceLocal: reused from the local approximate cache.
	SourceLocal Source = "local"
	// SourcePeer: reused from a nearby device's cache.
	SourcePeer Source = "peer"
	// SourceDNN: computed by running the DNN (a cache miss).
	SourceDNN Source = "dnn"
	// SourceFallback: served by the degradation ladder while the DNN
	// was unavailable (best cache hit or last result, flagged
	// low-confidence).
	SourceFallback Source = "fallback"
	// SourceShed: served by the degradation ladder because admission
	// control or a blown request deadline kept the frame off the
	// accelerator (overload, not failure).
	SourceShed Source = "shed"
)

// sourceOrder is every source in pipeline order; a source's position is
// its slot in SessionStats' per-source table.
var sourceOrder = [...]Source{SourceIMU, SourceVideo, SourceLocal, SourcePeer, SourceDNN, SourceFallback, SourceShed}

// Sources lists all sources in pipeline order.
func Sources() []Source {
	return append([]Source(nil), sourceOrder[:]...)
}

// ordinal returns src's position in sourceOrder, or -1 for a source
// this package does not define.
func (src Source) ordinal() int {
	for i, known := range sourceOrder {
		if src == known {
			return i
		}
	}
	return -1
}

// SessionStats aggregates one device run: per-source hit counts,
// latency, energy, recognition accuracy and every Event counter. Its
// size is fixed at construction. SessionStats is safe for concurrent
// use; one mutex (the latency recorder's) guards every field, so a
// frame is recorded in one critical section and Frames, CountBySource
// and Latency().Count() never disagree.
type SessionStats struct {
	lat      LatencyRecorder // lat.mu guards the fields below too
	counts   [NumEvents]int64
	bySource [len(sourceOrder)]int64
	energyMJ float64
	// otherSources counts frames from sources outside sourceOrder; nil
	// until one is observed (the engine never produces one).
	otherSources map[Source]int
	sensorFaults map[string]int
}

// NewSessionStats returns an empty aggregate.
func NewSessionStats() *SessionStats {
	return &SessionStats{sensorFaults: make(map[string]int)}
}

// ObserveFrame records the outcome of one frame.
func (s *SessionStats) ObserveFrame(src Source, latency time.Duration, energyMJ float64, correct bool) {
	s.lat.mu.Lock()
	defer s.lat.mu.Unlock()
	s.lat.recordLocked(latency)
	if i := src.ordinal(); i >= 0 {
		s.bySource[i]++
	} else {
		if s.otherSources == nil {
			s.otherSources = make(map[Source]int)
		}
		s.otherSources[src]++
	}
	if correct {
		s.counts[EventCorrect]++
	}
	s.energyMJ += energyMJ
}

// ObserveEnergy charges energy spent off the frame path — e.g. a
// shadow audit's DNN re-run, which costs real energy but no frame
// latency (the frame was already answered).
func (s *SessionStats) ObserveEnergy(energyMJ float64) {
	s.lat.mu.Lock()
	defer s.lat.mu.Unlock()
	s.energyMJ += energyMJ
}

// Add counts n occurrences of ev; n <= 0 is ignored.
func (s *SessionStats) Add(ev Event, n int) {
	if n <= 0 {
		return
	}
	s.lat.mu.Lock()
	defer s.lat.mu.Unlock()
	s.counts[ev] += int64(n)
}

// ObserveSensorFault records one rejected or rerouted device input
// (IMU window or camera frame) under EventSensorFault and its fault
// class, e.g. "imu-stuck" or "frame-low-entropy".
func (s *SessionStats) ObserveSensorFault(kind string) {
	s.lat.mu.Lock()
	defer s.lat.mu.Unlock()
	s.counts[EventSensorFault]++
	s.sensorFaults[kind]++
}

// Counts returns a consistent copy of the whole event table, indexed by
// Event.
func (s *SessionStats) Counts() [NumEvents]int64 {
	s.lat.mu.Lock()
	defer s.lat.mu.Unlock()
	return s.counts
}

// Count returns how often ev has been counted.
func (s *SessionStats) Count(ev Event) int {
	s.lat.mu.Lock()
	defer s.lat.mu.Unlock()
	return int(s.counts[ev])
}

// PeerTimeouts returns how many peer exchanges timed out.
func (s *SessionStats) PeerTimeouts() int { return s.Count(EventPeerTimeout) }

// BreakerEvents returns (trips, recoveries) of the peer circuit
// breaker.
func (s *SessionStats) BreakerEvents() (trips, recoveries int) {
	c := s.Counts()
	return int(c[EventBreakerTrip]), int(c[EventBreakerRecovery])
}

// DegradedFrames returns how many frames ran local-only because every
// peer was tripped open.
func (s *SessionStats) DegradedFrames() int { return s.Count(EventDegradedFrame) }

// SensorFaults returns a copy of the per-class sensor fault counts.
func (s *SessionStats) SensorFaults() map[string]int {
	s.lat.mu.Lock()
	defer s.lat.mu.Unlock()
	out := make(map[string]int, len(s.sensorFaults))
	for k, v := range s.sensorFaults {
		out[k] = v
	}
	return out
}

// SensorFaultTotal returns the total count across all fault classes.
func (s *SessionStats) SensorFaultTotal() int { return s.Count(EventSensorFault) }

// DegradedServeTotal returns the total frames served degraded.
func (s *SessionStats) DegradedServeTotal() int { return s.Count(EventDegradedServe) }

// WatchdogEvents returns the watchdog counters: per-call timeouts,
// transient retries, trips, recoveries, and fast-fails while down.
func (s *SessionStats) WatchdogEvents() (timeouts, retries, trips, recoveries, fastFails int) {
	c := s.Counts()
	return int(c[EventWatchdogTimeout]), int(c[EventWatchdogRetry]), int(c[EventWatchdogTrip]),
		int(c[EventWatchdogRecovery]), int(c[EventWatchdogFastFail])
}

// Sheds returns how many frames admission control shed.
func (s *SessionStats) Sheds() int { return s.Count(EventShed) }

// ExpiredDrops returns how many frames expired in the queue.
func (s *SessionStats) ExpiredDrops() int { return s.Count(EventExpiredDrop) }

// DeadlineCompletions returns (inDeadline, late) counts of frames that
// carried a request deadline.
func (s *SessionStats) DeadlineCompletions() (inDeadline, late int) {
	c := s.Counts()
	return int(c[EventInDeadline]), int(c[EventLate])
}

// BrownoutTransitions returns (raised, lowered) counts of brownout
// level changes.
func (s *SessionStats) BrownoutTransitions() (raised, lowered int) {
	c := s.Counts()
	return int(c[EventBrownoutRaised]), int(c[EventBrownoutLowered])
}

// Audits returns (total, refuted) shadow-audit counts.
func (s *SessionStats) Audits() (total, refuted int) {
	c := s.Counts()
	return int(c[EventAudit]), int(c[EventAuditRefuted])
}

// QuarantineEvents returns (quarantines, paroles, evictions) of the
// entry-quarantine state machine.
func (s *SessionStats) QuarantineEvents() (quarantines, paroles, evictions int) {
	c := s.Counts()
	return int(c[EventQuarantine]), int(c[EventParole]), int(c[EventParoleEvict])
}

// RecalibrationEvents returns (tightens, loosens) counts of gate
// threshold moves.
func (s *SessionStats) RecalibrationEvents() (tightens, loosens int) {
	c := s.Counts()
	return int(c[EventRecalTighten]), int(c[EventRecalLoosen])
}

// ReuseRefusals returns how many frames the drift controller refused
// to serve from reuse.
func (s *SessionStats) ReuseRefusals() int { return s.Count(EventReuseRefusal) }

// Repairs returns the total purged-entry count.
func (s *SessionStats) Repairs() int { return s.Count(EventRepair) }

// Frames returns the number of observed frames.
func (s *SessionStats) Frames() int { return s.lat.Count() }

// CountBySource returns a fresh map of the per-source frame counts,
// holding only sources that have been observed.
func (s *SessionStats) CountBySource() map[Source]int {
	s.lat.mu.Lock()
	defer s.lat.mu.Unlock()
	out := make(map[Source]int, len(sourceOrder))
	for i, n := range s.bySource {
		if n > 0 {
			out[sourceOrder[i]] = int(n)
		}
	}
	for src, n := range s.otherSources {
		out[src] = n
	}
	return out
}

// HitRate returns the fraction of frames served without running the
// DNN, or 0 with no frames.
func (s *SessionStats) HitRate() float64 {
	s.lat.mu.Lock()
	defer s.lat.mu.Unlock()
	if s.lat.count == 0 {
		return 0
	}
	return float64(int64(s.lat.count)-s.bySource[SourceDNN.ordinal()]) / float64(s.lat.count)
}

// Accuracy returns the fraction of frames whose final label matched
// ground truth, or 0 with no frames.
func (s *SessionStats) Accuracy() float64 {
	s.lat.mu.Lock()
	defer s.lat.mu.Unlock()
	if s.lat.count == 0 {
		return 0
	}
	return float64(s.counts[EventCorrect]) / float64(s.lat.count)
}

// EnergyMJ returns the total energy spent, in millijoules.
func (s *SessionStats) EnergyMJ() float64 {
	s.lat.mu.Lock()
	defer s.lat.mu.Unlock()
	return s.energyMJ
}

// PeerQueries returns (queries, hits) of the P2P path.
func (s *SessionStats) PeerQueries() (queries, hits int) {
	c := s.Counts()
	return int(c[EventPeerQuery]), int(c[EventPeerHit])
}

// Latency returns the latency recorder.
func (s *SessionStats) Latency() *LatencyRecorder { return &s.lat }
