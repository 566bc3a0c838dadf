package metrics

// Event names one scalar counter of a session. SessionStats keeps them
// all in one table indexed by Event, so a writer is Add(event, n), a
// reader Count(event), and Counts together with Event.String is every
// counter by name.
//
// Each fact is counted once, by whoever keeps it. An Event is raised on
// the frame path: by the engine, its watchdog or its quality loop. A
// controller that keeps its own lifetime counts is read from its own
// snapshot and is not mirrored here: the peer client's timeouts, breaker
// trips and recoveries and degraded queries (p2p.Client.Health) and the
// store's quarantines, paroles and parole evictions (QuarantineStats).
type Event uint8

// Session events, grouped by the subsystem that raises them.
const (
	// EventCorrect: a frame whose final label matched ground truth.
	EventCorrect Event = iota
	// EventRepair: a cache entry purged because a revalidation
	// contradicted it.
	EventRepair
	// EventSensorFault: a device input (IMU window or camera frame)
	// rejected or rerouted by the sensor guards; SensorFaults has the
	// breakdown by fault class.
	EventSensorFault
	// EventDegradedServe: a frame answered by the degradation ladder
	// instead of the full pipeline.
	EventDegradedServe

	// EventPeerQuery / EventPeerHit: a P2P query round-trip, and one
	// that found a result.
	EventPeerQuery
	EventPeerHit

	// Classifier watchdog: a call killed by the per-call deadline, a
	// transient-error retry, the classifier declared down, a probe
	// passing after a trip, and a call rejected while tripped open.
	EventWatchdogTimeout
	EventWatchdogRetry
	EventWatchdogTrip
	EventWatchdogRecovery
	EventWatchdogFastFail

	// EventShed: a frame kept off the accelerator by the full inference
	// queue and answered from the degradation ladder.
	EventShed
	// EventExpiredDrop: a frame whose deadline expired in the inference
	// queue before the accelerator saw it.
	EventExpiredDrop
	// EventInDeadline / EventLate: a deadline-carrying frame that
	// finished within, or past, its budget.
	EventInDeadline
	EventLate

	// EventAudit / EventAuditRefuted: a completed shadow audit (a cache
	// hit re-run through the DNN, never charged to the frame), and one where
	// the DNN disagreed with the served label.
	EventAudit
	EventAuditRefuted
	// EventRecalTighten / EventRecalLoosen: the drift controller moving
	// the gate thresholds stricter, or looser.
	EventRecalTighten
	EventRecalLoosen
	// EventReuseRefusal: a frame forced to revalidate because the drift
	// controller was refusing reuse at its strictest setting.
	EventReuseRefusal

	// NumEvents is the table size; valid events are [0, NumEvents).
	NumEvents
)

var eventNames = [NumEvents]string{
	EventCorrect:          "correct",
	EventRepair:           "repair",
	EventSensorFault:      "sensor-fault",
	EventDegradedServe:    "degraded-serve",
	EventPeerQuery:        "peer-query",
	EventPeerHit:          "peer-hit",
	EventWatchdogTimeout:  "watchdog-timeout",
	EventWatchdogRetry:    "watchdog-retry",
	EventWatchdogTrip:     "watchdog-trip",
	EventWatchdogRecovery: "watchdog-recovery",
	EventWatchdogFastFail: "watchdog-fast-fail",
	EventShed:             "shed",
	EventExpiredDrop:      "expired-drop",
	EventInDeadline:       "in-deadline",
	EventLate:             "late",
	EventAudit:            "audit",
	EventAuditRefuted:     "audit-refuted",
	EventRecalTighten:     "recal-tighten",
	EventRecalLoosen:      "recal-loosen",
	EventReuseRefusal:     "reuse-refusal",
}

// String returns the event's counter name.
func (e Event) String() string {
	if e < NumEvents {
		return eventNames[e]
	}
	return "unknown"
}
