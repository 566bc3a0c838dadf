package main

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"time"

	"approxcache/internal/cachestore"
	"approxcache/internal/core"
	"approxcache/internal/metrics"
)

// sources is the fixed order per-source counts are kept and printed in.
var sources = metrics.Sources()

func sourceIndex(s metrics.Source) int {
	for i, known := range sources {
		if s == known {
			return i
		}
	}
	return -1
}

// passStats is everything one pass over the inputs produced.
type passStats struct {
	frames int // timed frames attempted
	failed int // of those: Process error or empty label
	// wallNS is the timed wall clock: frame time summed on one
	// goroutine, start-to-last-finish on the pool.
	wallNS int64
	// frameNS is per-frame wall latency summed over every camera.
	frameNS      int64
	p50NS, p99NS int64
	simNS        int64 // sum of Result.Latency (virtual clock)
	energyMJ     float64
	correct      int
	bySource     []int
	wireBytes    int64 // client sent+received, timed phase
	// setupNS is building the fresh system plus its untimed warm-up.
	setupNS    int64
	violations []string

	// Counters read from the program's own statistics.
	evictions, repairs      int
	recorderBytes           int
	contended               int64
	sentBytes, recvBytes    int64
	coalesced, peerQueries  int64
	gossipBatches, gossiped int64
	batches, batchFrames    int64
	fullFlushes             int64
	accelBusyNS             int64

	// Untraced passes of a traced run only.
	allocs, allocBytes uint64
	gcCycles           uint32

	// Traced passes only. spans counts the recorded spans; agg is their
	// aggregate, filled in by the caller (see runTraced).
	spans               int
	agg                 [numOps]opAgg
	idxLenSum, idxCalls int64
	dnnCalls            int64
	p2pCalls, rttNS     int64
	waitNS              []int64
	mismatches          int
}

// runner drives passes over one workload's inputs. Result buffers are
// allocated once, before any heap baseline is taken.
type runner struct {
	in      *inputs
	rec     *recorder // nil on an end-to-end run
	results []core.Result
	errs    []bool
	// latNS is every timed frame's wall latency in the current pass, in
	// result-buffer order; sorted is scratch for its percentiles.
	latNS, sorted []int64
	// spans are the current traced pass's spans, every scenario's
	// timed phase appended in turn.
	spans []span
}

func newRunner(in *inputs, traced bool) *runner {
	n := in.timedFrames()
	r := &runner{
		in:      in,
		results: make([]core.Result, n),
		errs:    make([]bool, n),
		latNS:   make([]int64, n),
		sorted:  make([]int64, n),
	}
	if traced {
		r.rec = newRecorder(spanBudget(in), in.spec.kind == kindPool)
	}
	return r
}

// passOpts selects what a pass measures beyond the always-on metrics.
type passOpts struct {
	traced bool
	allocs bool // read runtime.MemStats around the timed phase
	heap   bool // report post-GC heap growth (systems stay live)
}

// pass runs every scenario once on a freshly built system. heapKB is
// meaningful only with opts.heap.
func (r *runner) pass(opts passOpts) (st *passStats, heapKB float64, err error) {
	st = &passStats{bySource: make([]int, len(sources))}
	var rec *recorder
	if opts.traced {
		rec = r.rec
		r.spans = r.spans[:0]
	}
	var heapBefore uint64
	if opts.heap {
		heapBefore = settledHeap()
	}
	var live []*system
	k := 0 // index of the next timed frame in the result buffers
	for _, sc := range r.in.scenarios {
		t0 := time.Now()
		sys, err := build(r.in.spec, sc, rec)
		if err != nil {
			return nil, 0, fmt.Errorf("build %s: %w", sc.name, err)
		}
		live = append(live, sys)
		n := sc.timedFrames()
		if r.in.spec.kind == kindPool {
			err = r.runPool(sc, sys, st, rec, k, opts, t0)
		} else {
			err = r.runSerial(sc, sys, st, rec, k, opts, t0)
		}
		sys.close()
		if err != nil {
			return nil, 0, fmt.Errorf("%s: %w", sc.name, err)
		}
		k += n
	}
	r.evaluate(st)
	if opts.heap {
		heapKB = (float64(settledHeap()) - float64(heapBefore)) / 1024
		runtime.KeepAlive(live)
	}
	return st, heapKB, nil
}

// settledHeap returns HeapAlloc after the collector has settled: two
// cycles, so sync.Pool victim caches are gone too.
func settledHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// counters is a snapshot of the program's own cumulative statistics,
// taken at the start and end of the timed phase.
type counters struct {
	evictions, repairs int
	sent, recv         int64
	coalesced          int64
	batches, items     int64
	peerQueries        int64
}

func (s *system) counters() counters {
	var c counters
	for _, st := range s.stores {
		c.evictions += st.Evictions()
	}
	for _, st := range s.stats {
		c.repairs += st.Repairs()
		q, _ := st.PeerQueries()
		c.peerQueries += int64(q)
	}
	for _, cl := range s.clients {
		w := cl.WireStats()
		c.sent += w.SentBytes
		c.recv += w.RecvBytes
		c.coalesced += w.CoalescedInFlight + w.CoalescedCached
		c.batches += w.Batches
		c.items += w.BatchedItems
	}
	return c
}

// timedPhase brackets the timed frames of one scenario: it books the
// set-up time, snapshots counters, and on return folds the deltas and
// the system's end-of-phase statistics into st.
func (r *runner) timedPhase(sys *system, st *passStats, rec *recorder, opts passOpts, t0 time.Time, run func()) {
	if rec != nil {
		rec.reset() // spans of the warm-up are not part of the table
	}
	before := sys.counters()
	var m0, m1 runtime.MemStats
	if opts.allocs {
		runtime.ReadMemStats(&m0)
	}
	st.setupNS += int64(time.Since(t0))

	run()

	if opts.allocs {
		runtime.ReadMemStats(&m1)
		st.allocs += m1.Mallocs - m0.Mallocs
		st.allocBytes += m1.TotalAlloc - m0.TotalAlloc
		st.gcCycles += m1.NumGC - m0.NumGC
	}
	after := sys.counters()
	st.evictions += after.evictions - before.evictions
	st.repairs += after.repairs - before.repairs
	st.sentBytes += after.sent - before.sent
	st.recvBytes += after.recv - before.recv
	st.coalesced += after.coalesced - before.coalesced
	st.gossipBatches += after.batches - before.batches
	st.gossiped += after.items - before.items
	st.peerQueries += after.peerQueries - before.peerQueries
	st.wireBytes = st.sentBytes + st.recvBytes
	for _, stats := range sys.stats {
		st.recorderBytes += 8 * stats.Latency().Count()
	}
	for _, raw := range sys.stores {
		if sh, ok := raw.(*cachestore.ShardedStore); ok {
			for _, s := range sh.ShardStats() {
				st.contended += s.Contended
			}
		}
	}
	if sys.batcher != nil {
		b := sys.batcher.Stats()
		st.batches, st.batchFrames, st.fullFlushes = b.Batches, b.SizeSum, b.FullFlushes
	}
	if sys.accel != nil {
		st.accelBusyNS = sys.accel.busyNS.Load()
	}
	if rec == nil {
		return
	}
	if d := rec.dropped.Load(); d > 0 {
		st.violations = append(st.violations, fmt.Sprintf("trace buffer overflowed: %d spans dropped", d))
	}
	// Parents are indexes into this scenario's spans: shift them to
	// the pass-wide list.
	base := int32(len(r.spans))
	for _, sp := range rec.recorded() {
		if sp.parent >= 0 {
			sp.parent += base
		}
		r.spans = append(r.spans, sp)
		st.spans++
	}
	for _, x := range sys.tIndexes {
		st.idxLenSum += x.lenSum.Load()
		st.idxCalls += x.lookups.Load()
	}
	for _, t := range sys.tTransports {
		st.p2pCalls += t.calls
		st.rttNS += t.rttNS
	}
	if c := sys.tClassifier; c != nil {
		st.dnnCalls += c.calls.Load()
		st.waitNS = append(st.waitNS, c.waitNS...)
	}
}

// runSerial drives a device or mesh scenario on the calling goroutine,
// closed loop: frame i of every stream, then frame i+1. Per-frame wall
// latency is the gap between consecutive completions, so an untraced
// frame costs one clock read.
func (r *runner) runSerial(sc *scenario, sys *system, st *passStats, rec *recorder, k int, opts passOpts, t0 time.Time) error {
	var shadows []*shadow
	if rec != nil {
		for range sc.streams {
			sh, err := newShadow(pipelineConfig(nil))
			if err != nil {
				return err
			}
			shadows = append(shadows, sh)
		}
	}
	// one serves stream d's frame i, traced when a recorder is set.
	one := func(d, i, k int) (core.Result, error) {
		f := &sc.streams[d][i]
		if rec == nil {
			return sys.engines[d].ProcessWithTruth(f.img, f.win, f.truth)
		}
		ts := sys.tStores[d]
		ts.vote.reset()
		rec.frame, rec.dev = int32(k), int8(d)
		s := rec.begin(opFrame, int8(d))
		res, err := sys.engines[d].ProcessWithTruth(f.img, f.win, f.truth)
		rec.end(s)
		if err == nil {
			shadows[d].replay(rec, *f, res, &ts.vote)
		}
		return res, err
	}
	for i := 0; i < sc.warm; i++ {
		for d := range sc.streams {
			if _, err := one(d, i, -1); err != nil {
				return fmt.Errorf("warm-up frame %d: %w", i, err)
			}
		}
	}
	n := len(sc.streams[0])
	r.timedPhase(sys, st, rec, opts, t0, func() {
		if rec != nil {
			for i := sc.warm; i < n; i++ {
				for d := range sc.streams {
					first := rec.n.Load()
					res, err := one(d, i, k)
					sp := rec.spans[first] // the frame span opens first
					r.latNS[k] = sp.end - sp.start
					r.results[k], r.errs[k] = res, err != nil
					k++
				}
			}
			return
		}
		prev := time.Now()
		for i := sc.warm; i < n; i++ {
			for d, stream := range sc.streams {
				f := &stream[i]
				res, err := sys.engines[d].ProcessWithTruth(f.img, f.win, f.truth)
				now := time.Now()
				r.latNS[k] = int64(now.Sub(prev))
				prev = now
				r.results[k], r.errs[k] = res, err != nil
				k++
			}
		}
	})
	for _, sh := range shadows {
		st.mismatches += sh.mismatches
	}
	return nil
}

// runPool drives a pool scenario: one goroutine per session, each a
// closed loop over its own stream. The warm-up and the timed frames
// are separate phases with a barrier between them.
func (r *runner) runPool(sc *scenario, sys *system, st *passStats, rec *recorder, k int, opts passOpts, t0 time.Time) error {
	perStream := len(sc.streams[0]) - sc.warm
	var failure error
	var failOnce sync.Once
	phase := func(from, to int, timed bool) {
		var wg sync.WaitGroup
		for d := range sc.streams {
			wg.Add(1)
			go func(d int) {
				defer wg.Done()
				eng, stream := sys.engines[d], sc.streams[d]
				at := k + d*perStream // this session's slice of the buffers
				prev := time.Now()
				for i := from; i < to; i++ {
					f := &stream[i]
					s := int32(-1)
					if rec != nil {
						s = rec.begin(opFrame, int8(d))
					}
					res, err := eng.ProcessWithTruth(f.img, f.win, f.truth)
					if rec != nil {
						rec.end(s)
					}
					if !timed {
						if err != nil {
							failOnce.Do(func() { failure = fmt.Errorf("warm-up frame %d: %w", i, err) })
							return
						}
						continue
					}
					now := time.Now()
					r.latNS[at] = int64(now.Sub(prev))
					prev = now
					r.results[at], r.errs[at] = res, err != nil
					if s >= 0 {
						rec.spans[s].frame = int32(at)
					}
					at++
				}
			}(d)
		}
		wg.Wait()
	}
	phase(0, sc.warm, false)
	if failure != nil {
		return failure
	}
	r.timedPhase(sys, st, rec, opts, t0, func() {
		start := time.Now()
		phase(sc.warm, len(sc.streams[0]), true)
		st.wallNS += int64(time.Since(start))
	})
	return nil
}

// evaluate checks every timed result and folds it into st.
func (r *runner) evaluate(st *passStats) {
	n := len(r.results)
	st.frames = n
	unknown := 0
	for i := 0; i < n; i++ {
		res := &r.results[i]
		if r.errs[i] || res.Label == "" {
			st.failed++
			continue
		}
		si := sourceIndex(res.Source)
		if si < 0 {
			unknown++
			continue
		}
		st.bySource[si]++
		st.simNS += int64(res.Latency)
		st.energyMJ += res.EnergyMJ
		if res.Label == r.truthOf(i) {
			st.correct++
		}
	}
	if unknown > 0 {
		st.violations = append(st.violations, fmt.Sprintf("%d results carry an unknown Source", unknown))
	}
	if st.mismatches > 0 {
		st.violations = append(st.violations,
			fmt.Sprintf("shadow replay disagreed with the engine on %d gate decisions", st.mismatches))
	}
	st.setTiming(r.latNS, r.sorted, r.in.spec.kind != kindPool)
}

// setTiming derives the pass's wall-clock numbers from a per-frame
// latency series. One goroutine serves frames back to back, so there
// the timed wall clock is the sum of the frame latencies.
func (st *passStats) setTiming(latNS, scratch []int64, serial bool) {
	st.frameNS = 0
	for _, d := range latNS {
		st.frameNS += d
	}
	if serial {
		st.wallNS = st.frameNS
	}
	copy(scratch, latNS)
	slices.Sort(scratch)
	st.p50NS = percentileNS(scratch, 50)
	st.p99NS = percentileNS(scratch, 99)
}

// truthOf maps a result-buffer index back to its frame's ground truth.
// Buffers are filled scenario by scenario; within a device or mesh
// scenario in round-robin order, within a pool scenario stream by
// stream.
func (r *runner) truthOf(k int) string {
	for _, sc := range r.in.scenarios {
		n := sc.timedFrames()
		if k >= n {
			k -= n
			continue
		}
		streams := len(sc.streams)
		if r.in.spec.kind == kindPool {
			per := n / streams
			return sc.streams[k/per][sc.warm+k%per].truth
		}
		return sc.streams[k%streams][sc.warm+k/streams].truth
	}
	return ""
}
