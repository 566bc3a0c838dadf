package main

import (
	"bufio"
	"encoding/json"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"approxcache/internal/cachestore"
	"approxcache/internal/core"
	"approxcache/internal/dnn"
	"approxcache/internal/feature"
	"approxcache/internal/lsh"
	"approxcache/internal/p2p"
	"approxcache/internal/vision"
)

// op names one traced operation: a call through an interface seam, a
// shadow replay of a layer that has no seam, or the frame itself.
type op uint8

const (
	opFrame op = iota
	opDNNInfer
	opExtract
	opIdxNearest
	opIdxInsert
	opIdxRemove
	opStNearest
	opStLabel
	opStTouch
	opStInsert
	opStRemove
	opP2PCall
	opP2PSend
	// Shadow ops run after the frame, outside its span, on instances
	// fed the same inputs (see shadow.go).
	opShCheckFrame
	opShCheckWindow
	opShIMUGate
	opShVideoMatch
	opShVideoPush
	opShVote
	opShObserve
	numOps
)

// opInfo gives each op its span name and the module (layer group) its
// self time is booked to.
var opInfo = [numOps]struct {
	name, module string
	shadow       bool
}{
	opFrame:         {"core.frame", "core", false},
	opDNNInfer:      {"dnn.infer", "dnn", false},
	opExtract:       {"feature.extract", "feature", false},
	opIdxNearest:    {"lsh.nearest", "lsh", false},
	opIdxInsert:     {"lsh.insert", "lsh", false},
	opIdxRemove:     {"lsh.remove", "lsh", false},
	opStNearest:     {"cachestore.nearest", "cachestore", false},
	opStLabel:       {"cachestore.label", "cachestore", false},
	opStTouch:       {"cachestore.touch", "cachestore", false},
	opStInsert:      {"cachestore.insert", "cachestore", false},
	opStRemove:      {"cachestore.remove", "cachestore", false},
	opP2PCall:       {"p2p.call", "p2p", false},
	opP2PSend:       {"p2p.send", "p2p", false},
	opShCheckFrame:  {"vision.check_frame", "vision", true},
	opShCheckWindow: {"imu.check_window", "imu", true},
	opShIMUGate:     {"imu.gate", "imu", true},
	opShVideoMatch:  {"video.match", "video", true},
	opShVideoPush:   {"video.push", "video", true},
	opShVote:        {"lsh.vote", "lsh", true},
	opShObserve:     {"metrics.observe_frame", "metrics", true},
}

// modules lists the layer groups of the share table, in pipeline order.
var modules = []string{"vision", "imu", "video", "feature", "lsh", "cachestore", "p2p", "dnn", "metrics", "core"}

// span is one recorded interval. Times are nanoseconds since the
// recorder's base. parent is the index of the enclosing span (-1 for a
// root) and frame the frame it belongs to (-1 when unknown: on the
// concurrent workload a shared seam cannot tell which session called).
type span struct {
	op     op
	dev    int8
	parent int32
	frame  int32
	start  int64
	end    int64
}

// recorder keeps one pass's spans in memory. In single-goroutine mode
// it tracks the open-span stack, so every span knows its parent; in
// concurrent mode spans are appended lock-free and carry no parent.
type recorder struct {
	concurrent bool
	base       time.Time
	spans      []span
	n          atomic.Int64
	dropped    atomic.Int64

	// Single-goroutine state, set by the driver before each frame.
	stack []int32
	frame int32
	dev   int8
}

func newRecorder(capacity int, concurrent bool) *recorder {
	return &recorder{concurrent: concurrent, spans: make([]span, capacity), base: time.Now()}
}

// reset empties the recorder for the next pass.
func (r *recorder) reset() {
	r.n.Store(0)
	r.stack = r.stack[:0]
	r.base = time.Now()
}

func (r *recorder) now() int64 { return int64(time.Since(r.base)) }

// begin opens a span and returns its handle for end.
func (r *recorder) begin(o op, dev int8) int32 {
	i := r.n.Add(1) - 1
	if i >= int64(len(r.spans)) {
		r.dropped.Add(1)
		return -1
	}
	s := &r.spans[i]
	s.op, s.dev, s.parent, s.frame = o, dev, -1, -1
	if !r.concurrent {
		s.frame = r.frame
		if dev < 0 {
			s.dev = r.dev
		}
		if n := len(r.stack); n > 0 {
			s.parent = r.stack[n-1]
		}
		r.stack = append(r.stack, int32(i))
	}
	s.start = r.now()
	return int32(i)
}

func (r *recorder) end(i int32) {
	t := r.now()
	if i < 0 {
		return
	}
	r.spans[i].end = t
	if !r.concurrent {
		r.stack = r.stack[:len(r.stack)-1]
	}
}

// recorded returns the spans of the current pass.
func (r *recorder) recorded() []span {
	n := r.n.Load()
	if n > int64(len(r.spans)) {
		n = int64(len(r.spans))
	}
	return r.spans[:n]
}

// clockCostNS is the calibrated cost of one span's two clock reads,
// subtracted from every span so that sub-microsecond layers are not
// mostly timer.
var clockCostNS = calibrateClock()

func calibrateClock() int64 {
	base := time.Now()
	const n = 2001
	d := make([]int64, n)
	for i := range d {
		a := int64(time.Since(base))
		b := int64(time.Since(base))
		d[i] = b - a
	}
	slices.Sort(d)
	return d[n/2]
}

// opAgg is one op's totals over a pass. self is inclusive time minus
// the time of child spans (and minus the clock reads tracing added).
type opAgg struct {
	calls int64
	incl  int64
	self  int64
}

// aggregate folds a pass's spans into per-op totals.
func aggregate(spans []span) [numOps]opAgg {
	var agg [numOps]opAgg
	for i := range spans {
		s := &spans[i]
		d := s.end - s.start - clockCostNS
		if d < 0 {
			d = 0
		}
		a := &agg[s.op]
		a.calls++
		a.incl += d
		a.self += d
		if s.parent >= 0 {
			// The parent paid for the child's interval plus the part of
			// the child's clock reads that fell outside it.
			agg[spans[s.parent].op].self -= d + 2*clockCostNS
		}
	}
	for i := range agg {
		if agg[i].self < 0 {
			agg[i].self = 0
		}
	}
	return agg
}

// writeSpans writes spans as JSON lines: name, start and end in
// nanoseconds since the pass began, parent span index (-1 = root),
// frame id, device, and whether the span is a shadow replay.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	type line struct {
		ID     int    `json:"id"`
		Name   string `json:"name"`
		Start  int64  `json:"start_ns"`
		End    int64  `json:"end_ns"`
		Parent int32  `json:"parent"`
		Frame  int32  `json:"frame"`
		Dev    int8   `json:"dev"`
		Shadow bool   `json:"shadow,omitempty"`
	}
	for i, s := range spans {
		info := opInfo[s.op]
		if err := enc.Encode(line{i, info.name, s.start, s.end, s.parent, s.frame, s.dev, info.shadow}); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// --- seam wrappers ---------------------------------------------------
//
// Each wrapper times the calls through one interface seam and forwards
// them unchanged. A wrapper implements every optional interface its
// target does, so the pipeline keeps taking its fast paths.

// tracedClassifier wraps the core.Classifier seam (dnn). On the pool
// workload its target is the micro-batcher, so it also forwards
// InferDeadline and books how long each call waited beyond the
// accelerator occupancy of the invocation that served it.
type tracedClassifier struct {
	inner core.Classifier
	rec   *recorder
	calls atomic.Int64

	accel  *accelerator // pool only
	waitMu sync.Mutex
	waitNS []int64
}

var (
	_ core.Classifier      = (*tracedClassifier)(nil)
	_ dnn.DeadlineInferrer = (*tracedClassifier)(nil)
)

func (c *tracedClassifier) Profile() dnn.Profile { return c.inner.Profile() }

func (c *tracedClassifier) Infer(im *vision.Image) (dnn.Inference, error) {
	return c.InferDeadline(im, time.Time{})
}

func (c *tracedClassifier) InferDeadline(im *vision.Image, deadline time.Time) (dnn.Inference, error) {
	c.calls.Add(1)
	s := c.rec.begin(opDNNInfer, -1)
	var inf dnn.Inference
	var err error
	if di, ok := c.inner.(dnn.DeadlineInferrer); ok && !deadline.IsZero() {
		inf, err = di.InferDeadline(im, deadline)
	} else {
		inf, err = c.inner.Infer(im)
	}
	c.rec.end(s)
	if c.accel != nil && s >= 0 {
		sp := c.rec.spans[s]
		wait := sp.end - sp.start - int64(c.accel.occupancyOf(im))
		c.waitMu.Lock()
		c.waitNS = append(c.waitNS, wait)
		c.waitMu.Unlock()
	}
	return inf, err
}

// tracedExtractor wraps the feature.Extractor seam.
type tracedExtractor struct {
	inner feature.IntoExtractor
	rec   *recorder
}

var _ feature.IntoExtractor = (*tracedExtractor)(nil)

func (e *tracedExtractor) Dim() int     { return e.inner.Dim() }
func (e *tracedExtractor) Name() string { return e.inner.Name() }

func (e *tracedExtractor) Extract(im *vision.Image) (feature.Vector, error) {
	return e.ExtractInto(im, nil)
}

func (e *tracedExtractor) ExtractInto(im *vision.Image, dst feature.Vector) (feature.Vector, error) {
	s := e.rec.begin(opExtract, -1)
	v, err := e.inner.ExtractInto(im, dst)
	e.rec.end(s)
	return v, err
}

// tracedIndex wraps the lsh.Index handed to the store. lenSum/lookups
// give the mean index size a lookup saw — the scale key for lookup
// cost.
type tracedIndex struct {
	inner   lsh.IntoIndex
	rec     *recorder
	dev     int8
	lenSum  atomic.Int64
	lookups atomic.Int64
}

var _ lsh.IntoIndex = (*tracedIndex)(nil)

func (x *tracedIndex) Len() int { return x.inner.Len() }

func (x *tracedIndex) Insert(id lsh.ID, v feature.Vector) error {
	s := x.rec.begin(opIdxInsert, x.dev)
	err := x.inner.Insert(id, v)
	x.rec.end(s)
	return err
}

func (x *tracedIndex) Remove(id lsh.ID) {
	s := x.rec.begin(opIdxRemove, x.dev)
	x.inner.Remove(id)
	x.rec.end(s)
}

func (x *tracedIndex) Nearest(q feature.Vector, k int) ([]lsh.Neighbor, error) {
	return x.NearestInto(q, k, nil)
}

func (x *tracedIndex) NearestInto(q feature.Vector, k int, dst []lsh.Neighbor) ([]lsh.Neighbor, error) {
	x.lookups.Add(1)
	x.lenSum.Add(int64(x.inner.Len()))
	s := x.rec.begin(opIdxNearest, x.dev)
	ns, err := x.inner.NearestInto(q, k, dst)
	x.rec.end(s)
	return ns, err
}

// tracedStore wraps the cachestore.Interface handed to the engine (and,
// on the mesh, to the device's peer service). The embedded interface
// forwards the methods a run never puts on the frame path.
type tracedStore struct {
	cachestore.Interface
	rec *recorder
	dev int8
	// vote captures what the engine's kNN vote saw this frame, for the
	// shadow replay of lsh.Vote (single-goroutine workloads only).
	vote voteCapture
}

// voteCapture is the first NearestInto result of a frame and the
// labels resolved for it before the next lookup.
type voteCapture struct {
	lookups int
	ns      []lsh.Neighbor
	ids     []lsh.ID
	labels  []string
	oks     []bool
}

func (v *voteCapture) reset() {
	v.lookups = 0
	v.ns, v.ids, v.labels, v.oks = v.ns[:0], v.ids[:0], v.labels[:0], v.oks[:0]
}

// labelOf replays the captured resolutions in lsh.Vote's callback shape.
func (v *voteCapture) labelOf(id lsh.ID) (string, bool) {
	for i, have := range v.ids {
		if have == id {
			return v.labels[i], v.oks[i]
		}
	}
	return "", false
}

func (s *tracedStore) Insert(vec feature.Vector, label string, confidence float64, source string, saved time.Duration) (lsh.ID, error) {
	sp := s.rec.begin(opStInsert, s.dev)
	id, err := s.Interface.Insert(vec, label, confidence, source, saved)
	s.rec.end(sp)
	return id, err
}

func (s *tracedStore) Touch(id lsh.ID) {
	sp := s.rec.begin(opStTouch, s.dev)
	s.Interface.Touch(id)
	s.rec.end(sp)
}

func (s *tracedStore) Label(id lsh.ID) (string, bool) {
	sp := s.rec.begin(opStLabel, s.dev)
	label, ok := s.Interface.Label(id)
	s.rec.end(sp)
	if !s.rec.concurrent && s.vote.lookups == 1 {
		s.vote.ids = append(s.vote.ids, id)
		s.vote.labels = append(s.vote.labels, label)
		s.vote.oks = append(s.vote.oks, ok)
	}
	return label, ok
}

func (s *tracedStore) Nearest(q feature.Vector, k int) ([]lsh.Neighbor, error) {
	sp := s.rec.begin(opStNearest, s.dev)
	ns, err := s.Interface.Nearest(q, k)
	s.rec.end(sp)
	return ns, err
}

func (s *tracedStore) NearestInto(q feature.Vector, k int, dst []lsh.Neighbor) ([]lsh.Neighbor, error) {
	sp := s.rec.begin(opStNearest, s.dev)
	ns, err := s.Interface.NearestInto(q, k, dst)
	s.rec.end(sp)
	if !s.rec.concurrent {
		if s.vote.lookups == 0 {
			s.vote.ns = append(s.vote.ns[:0], ns...)
		}
		s.vote.lookups++
	}
	return ns, err
}

func (s *tracedStore) Remove(id lsh.ID) {
	sp := s.rec.begin(opStRemove, s.dev)
	s.Interface.Remove(id)
	s.rec.end(sp)
}

// tracedTransport wraps the p2p.Transport seam. Time inside Call
// includes the remote device's service work (its store and index spans
// nest under the call); rtt is the simulated round trip simnet charged.
type tracedTransport struct {
	inner p2p.Transport
	rec   *recorder
	dev   int8
	calls int64
	rttNS int64
}

var _ p2p.Transport = (*tracedTransport)(nil)

func (t *tracedTransport) Call(peer string, req []byte) ([]byte, time.Duration, error) {
	s := t.rec.begin(opP2PCall, t.dev)
	resp, rtt, err := t.inner.Call(peer, req)
	t.rec.end(s)
	t.calls++
	t.rttNS += int64(rtt)
	return resp, rtt, err
}

func (t *tracedTransport) Send(peer string, payload []byte) (time.Duration, error) {
	s := t.rec.begin(opP2PSend, t.dev)
	cost, err := t.inner.Send(peer, payload)
	t.rec.end(s)
	return cost, err
}

// spanBudget is how many spans a pass of in may record: generous per
// frame, so a dropped span means a bug, not a busy frame.
func spanBudget(in *inputs) int {
	frames := 0
	for _, sc := range in.scenarios {
		for _, s := range sc.streams {
			frames += len(s)
		}
	}
	return frames*48 + 1024
}
