package metrics

// Serving-scale counters: the micro-batcher's aggregate statistics, a
// plain value snapshot — the live counters stay inside dnn.Batcher and
// are copied out here for reporting, so the metrics package never holds
// locks on the hot path.

// BatcherStats summarizes a micro-batching scheduler's behavior.
type BatcherStats struct {
	// Batches is the number of batches dispatched.
	Batches int64
	// SizeSum sums dispatched batch sizes: the frames classified
	// through the batcher (AvgSize = SizeSum/Batches).
	SizeSum int64
	// FullFlushes counts batches dispatched because they reached
	// MaxBatch; DeadlineFlushes counts batches dispatched by the
	// MaxWait timer with spare capacity left.
	FullFlushes     int64
	DeadlineFlushes int64
	// ExpiredDrops counts frames stale-dropped because their request
	// deadline passed before the accelerator saw them (on arrival or at
	// dispatch time).
	ExpiredDrops int64
	// Overflows counts frames refused because the bounded pending queue
	// was full.
	Overflows int64
}

// AvgSize returns the mean dispatched batch size, or 0 before any
// batch has been dispatched.
func (b BatcherStats) AvgSize() float64 {
	if b.Batches == 0 {
		return 0
	}
	return float64(b.SizeSum) / float64(b.Batches)
}
