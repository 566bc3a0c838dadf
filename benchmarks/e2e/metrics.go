package main

import (
	"fmt"
	"slices"

	"approxcache/internal/metrics"
)

// metricDef declares one reported metric. BENCHMARK.json repeats name,
// unit and direction (and carries the regression bound);
// TestBenchmarkJSONMatchesHarness holds the two together.
type metricDef struct {
	name, unit, better string
}

// endToEnd lists the metrics a user of the system would see, reported
// by every workload on an untraced run.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"frames_per_s", "1/s", "higher"},
	{"sim_mean_ms", "ms", "lower"},
	{"sim_latency_reduction", "ratio", "higher"},
	{"accuracy", "ratio", "higher"},
	{"energy_mj_per_frame", "mJ", "lower"},
	{"session_heap_kb", "KiB", "lower"},
}

// perLayer lists the metrics of single layers, reported by every
// workload on a traced run (zero where the layer is idle).
var perLayer = []metricDef{
	{"vision.check_frame_ns", "ns", "lower"},
	{"imu.check_window_ns", "ns", "lower"},
	{"imu.gate_ns", "ns", "lower"},
	{"imu.served_share", "ratio", "higher"},
	{"video.match_ns", "ns", "lower"},
	{"video.push_ns", "ns", "lower"},
	{"video.served_share", "ratio", "higher"},
	{"feature.extract_ns", "ns", "lower"},
	{"feature.extract_calls_per_frame", "count", "lower"},
	{"lsh.nearest_ns", "ns", "lower"},
	{"lsh.nearest_calls_per_frame", "count", "lower"},
	{"lsh.vote_ns", "ns", "lower"},
	{"lsh.index_len", "count", "lower"},
	{"lsh.insert_ns", "ns", "lower"},
	{"lsh.remove_ns", "ns", "lower"},
	{"cachestore.nearest_self_ns", "ns", "lower"},
	{"cachestore.label_ns", "ns", "lower"},
	{"cachestore.label_calls_per_frame", "count", "lower"},
	{"cachestore.touch_ns", "ns", "lower"},
	{"cachestore.local_served_share", "ratio", "higher"},
	{"cachestore.insert_self_ns", "ns", "lower"},
	{"cachestore.insert_calls_per_frame", "count", "lower"},
	{"cachestore.evictions_per_frame", "count", "lower"},
	{"cachestore.contended_ops", "count", "lower"},
	{"core.repairs_per_frame", "count", "lower"},
	{"core.hit_rate", "ratio", "higher"},
	{"core.dnn_frame_share", "ratio", "lower"},
	{"core.self_ns_per_frame", "ns", "lower"},
	{"core.self_share", "ratio", "lower"},
	{"core.allocs_per_frame", "count", "lower"},
	{"core.alloc_bytes_per_frame", "B", "lower"},
	{"core.gc_cycles", "count", "lower"},
	{"p2p.call_ns", "ns", "lower"},
	{"p2p.send_ns", "ns", "lower"},
	{"p2p.query_calls_per_frame", "count", "lower"},
	{"p2p.sim_rtt_ms_mean", "ms", "lower"},
	{"p2p.sent_bytes_per_frame", "B", "lower"},
	{"p2p.recv_bytes_per_frame", "B", "lower"},
	{"p2p.coalesced_share", "ratio", "higher"},
	{"p2p.gossip_batch_avg", "count", "higher"},
	{"p2p.peer_served_share", "ratio", "higher"},
	{"dnn.infer_calls_per_frame", "count", "lower"},
	{"dnn.stub_ns", "ns", "lower"},
	{"dnn.accel_busy_share", "ratio", "higher"},
	{"dnn.batch_avg_size", "count", "higher"},
	{"dnn.batch_full_flush_share", "ratio", "higher"},
	{"dnn.infer_wait_us_p50", "us", "lower"},
	{"metrics.observe_frame_ns", "ns", "lower"},
	{"metrics.latency_recorder_bytes", "B", "lower"},
	{"vision.share", "ratio", "lower"},
	{"imu.share", "ratio", "lower"},
	{"video.share", "ratio", "lower"},
	{"feature.share", "ratio", "lower"},
	{"lsh.share", "ratio", "lower"},
	{"cachestore.share", "ratio", "lower"},
	{"p2p.share", "ratio", "lower"},
	{"dnn.share", "ratio", "lower"},
	{"metrics.share", "ratio", "lower"},
	{"trace.overhead_pct", "%", "lower"},
	{"trace.table_sum_pct", "%", "lower"},
	// End-to-end quantities the benchmark contract does not allow among
	// the bounded metrics. The latency percentiles do not repeat within
	// a tenth from run to run: the median of pool-serve's bimodal
	// distribution spreads 22% on an idle host, and a busy spell moved
	// photo-lookup's ten-run p99 by 23% (README, "Why the bounds are
	// what they are"). Each is the median over pairs of the untraced
	// pass's own percentile. The other two are zero on most workloads.
	{"frame_p50_us", "us", "lower"},
	{"frame_p99_us", "us", "lower"},
	{"wire_bytes_per_frame", "B", "lower"},
	{"fail_rate", "ratio", "lower"},
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func (st *passStats) count(s metrics.Source) float64 {
	return float64(st.bySource[sourceIndex(s)])
}

// succeeded is the number of timed frames that were served.
func (st *passStats) succeeded() int { return st.frames - st.failed }

// endToEndOf computes one pass's end-to-end metrics (all but setup_s
// and session_heap_kb, which are per run).
func endToEndOf(st *passStats, in *inputs) map[string]float64 {
	ok := float64(st.succeeded())
	simMS := ratio(float64(st.simNS), ok) / 1e6
	return map[string]float64{
		"frames_per_s":          ratio(float64(st.frames), float64(st.wallNS)/1e9),
		"sim_mean_ms":           simMS,
		"sim_latency_reduction": 1 - ratio(simMS, in.noCacheMeanMS),
		"accuracy":              ratio(float64(st.correct), ok),
		"energy_mj_per_frame":   ratio(st.energyMJ, ok),
	}
}

// perLayerOf computes one traced pass's per-layer metrics. untraced is
// the untraced pass of the same pair: it supplies the allocation
// counts (which must not include the tracer's own) and the untraced
// per-frame cost the table is compared with.
func perLayerOf(tr, untraced *passStats, concurrent bool) map[string]float64 {
	f := float64(tr.frames)
	a := &tr.agg
	perCall := func(o op) float64 { return ratio(float64(a[o].incl), float64(a[o].calls)) }
	selfPerCall := func(o op) float64 { return ratio(float64(a[o].self), float64(a[o].calls)) }
	calls := func(o op) float64 { return float64(a[o].calls) }

	// Self time of the store operations. With the span tree (one
	// goroutine) it is exact. On the pool a shared seam cannot know
	// its caller, so spans carry no parent and the index time is
	// subtracted by name: every index lookup runs under a store
	// lookup; index removals run under a store removal or an evicting
	// insert.
	nearestSelf, insertSelf := float64(a[opStNearest].self), float64(a[opStInsert].self)
	if concurrent {
		nearestSelf = float64(a[opStNearest].incl - a[opIdxNearest].incl)
		evictNS := a[opIdxRemove].incl - a[opStRemove].incl
		if evictNS < 0 {
			evictNS = 0
		}
		insertSelf = float64(a[opStInsert].incl - a[opIdxInsert].incl - evictNS)
	}

	// The per-layer table: self time per module, summed over the pass.
	module := make(map[string]float64, len(modules))
	var shadowNS float64
	for o := op(0); o < numOps; o++ {
		info := opInfo[o]
		switch {
		case o == opFrame:
		case info.shadow:
			module[info.module] += float64(a[o].incl)
			shadowNS += float64(a[o].incl)
		case concurrent:
			// Without parents self == inclusive; the store rows are
			// corrected below.
			module[info.module] += float64(a[o].incl)
		default:
			module[info.module] += float64(a[o].self)
		}
	}
	if concurrent {
		module["cachestore"] -= float64(a[opIdxNearest].incl + a[opIdxInsert].incl + a[opIdxRemove].incl)
		if module["cachestore"] < 0 {
			module["cachestore"] = 0
		}
	}
	// core is what is left of the frame once every seam span under it
	// and every shadow replay for it is taken out.
	coreSelf := float64(a[opFrame].self) - shadowNS
	if concurrent {
		coreSelf = float64(a[opFrame].incl)
		for _, m := range modules {
			coreSelf -= module[m]
		}
	}
	if coreSelf < 0 {
		coreSelf = 0
	}
	module["core"] = coreSelf
	var table float64
	for _, m := range modules {
		table += module[m]
	}

	// Per-frame cost is closed-loop frame time summed over every
	// camera, so the pool (whose wall clock is elapsed time) compares
	// like with like.
	untracedPerFrame := ratio(float64(untraced.frameNS), float64(untraced.frames))
	tracedPerFrame := ratio(float64(tr.frameNS), f)
	uf := float64(untraced.frames)
	wait := slices.Clone(tr.waitNS)
	slices.Sort(wait)

	out := map[string]float64{
		"vision.check_frame_ns": perCall(opShCheckFrame),
		"imu.check_window_ns":   perCall(opShCheckWindow),
		"imu.gate_ns":           perCall(opShIMUGate),
		"imu.served_share":      ratio(tr.count(metrics.SourceIMU), f),
		"video.match_ns":        perCall(opShVideoMatch),
		"video.push_ns":         perCall(opShVideoPush),
		"video.served_share":    ratio(tr.count(metrics.SourceVideo), f),

		"feature.extract_ns":              selfPerCall(opExtract),
		"feature.extract_calls_per_frame": ratio(calls(opExtract), f),
		"lsh.nearest_ns":                  perCall(opIdxNearest),
		"lsh.nearest_calls_per_frame":     ratio(calls(opIdxNearest), f),
		"lsh.vote_ns":                     perCall(opShVote),
		"lsh.index_len":                   ratio(float64(tr.idxLenSum), float64(tr.idxCalls)),
		"lsh.insert_ns":                   perCall(opIdxInsert),
		"lsh.remove_ns":                   perCall(opIdxRemove),

		"cachestore.nearest_self_ns":        ratio(nearestSelf, calls(opStNearest)),
		"cachestore.label_ns":               perCall(opStLabel),
		"cachestore.label_calls_per_frame":  ratio(calls(opStLabel), f),
		"cachestore.touch_ns":               perCall(opStTouch),
		"cachestore.local_served_share":     ratio(tr.count(metrics.SourceLocal), f),
		"cachestore.insert_self_ns":         ratio(insertSelf, calls(opStInsert)),
		"cachestore.insert_calls_per_frame": ratio(calls(opStInsert), f),
		"cachestore.evictions_per_frame":    ratio(float64(tr.evictions), f),
		"cachestore.contended_ops":          float64(tr.contended),

		"core.repairs_per_frame":     ratio(float64(tr.repairs), f),
		"core.hit_rate":              1 - ratio(tr.count(metrics.SourceDNN), float64(tr.succeeded())),
		"core.dnn_frame_share":       ratio(tr.count(metrics.SourceDNN), f),
		"core.self_ns_per_frame":     ratio(coreSelf, f),
		"core.self_share":            ratio(coreSelf, table),
		"core.allocs_per_frame":      ratio(float64(untraced.allocs), uf),
		"core.alloc_bytes_per_frame": ratio(float64(untraced.allocBytes), uf),
		"core.gc_cycles":             float64(untraced.gcCycles),

		"p2p.call_ns":               selfPerCall(opP2PCall),
		"p2p.send_ns":               selfPerCall(opP2PSend),
		"p2p.query_calls_per_frame": ratio(float64(tr.p2pCalls), f),
		"p2p.sim_rtt_ms_mean":       ratio(float64(tr.rttNS), float64(tr.p2pCalls)) / 1e6,
		"p2p.sent_bytes_per_frame":  ratio(float64(tr.sentBytes), f),
		"p2p.recv_bytes_per_frame":  ratio(float64(tr.recvBytes), f),
		"p2p.coalesced_share":       ratio(float64(tr.coalesced), float64(tr.peerQueries+tr.coalesced)),
		"p2p.gossip_batch_avg":      ratio(float64(tr.gossiped), float64(tr.gossipBatches)),
		"p2p.peer_served_share":     ratio(tr.count(metrics.SourcePeer), f),

		"dnn.infer_calls_per_frame":  ratio(float64(tr.dnnCalls), f),
		"dnn.stub_ns":                0,
		"dnn.accel_busy_share":       ratio(float64(tr.accelBusyNS), float64(tr.wallNS)),
		"dnn.batch_avg_size":         ratio(float64(tr.batchFrames), float64(tr.batches)),
		"dnn.batch_full_flush_share": ratio(float64(tr.fullFlushes), float64(tr.batches)),
		"dnn.infer_wait_us_p50":      float64(percentileNS(wait, 50)) / 1e3,

		"metrics.observe_frame_ns":       perCall(opShObserve),
		"metrics.latency_recorder_bytes": float64(tr.recorderBytes),

		"trace.overhead_pct":  100 * (ratio(tracedPerFrame, untracedPerFrame) - 1),
		"trace.table_sum_pct": 100 * ratio(table/f, untracedPerFrame),

		"frame_p50_us":         float64(untraced.p50NS) / 1e3,
		"frame_p99_us":         float64(untraced.p99NS) / 1e3,
		"wire_bytes_per_frame": ratio(float64(tr.wireBytes), f),
		"fail_rate":            ratio(float64(tr.failed), f),
	}
	if !concurrent {
		// On the pool the classifier is the live model behind the
		// accelerator, not a stub.
		out["dnn.stub_ns"] = selfPerCall(opDNNInfer)
	}
	for _, m := range modules {
		if m != "core" {
			out[m+".share"] = ratio(module[m], table)
		}
	}
	return out
}

// column returns one metric's value in every pass.
func column(passes []map[string]float64, key string) []float64 {
	vals := make([]float64, len(passes))
	for i, p := range passes {
		vals[i] = p[key]
	}
	return vals
}

// medianByKey takes, for every metric, the median of its per-pass
// values.
func medianByKey(passes []map[string]float64) map[string]float64 {
	out := make(map[string]float64)
	if len(passes) == 0 {
		return out
	}
	for key := range passes[0] {
		out[key] = median(column(passes, key))
	}
	return out
}

// checkDefs reports metric names computed but not declared, or
// declared but not computed — a harness bug, not a run failure.
func checkDefs(defs []metricDef, got map[string]float64) error {
	for _, d := range defs {
		if _, ok := got[d.name]; !ok {
			return fmt.Errorf("metric %s is declared but was not computed", d.name)
		}
	}
	if len(got) != len(defs) {
		return fmt.Errorf("%d metrics computed, %d declared", len(got), len(defs))
	}
	return nil
}
