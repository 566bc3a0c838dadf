package dnn

import (
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"approxcache/internal/vision"
)

func batchImages(t *testing.T, cs *vision.ClassSet, n int) []*vision.Image {
	t.Helper()
	rng := rand.New(rand.NewSource(77))
	out := make([]*vision.Image, n)
	for i := range out {
		im, err := cs.Render(i%cs.NumClasses(), vision.DefaultPerturbation(), rng)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = im
	}
	return out
}

func TestBatchLatencyModel(t *testing.T) {
	p := MobileNetV2
	if got := BatchLatency(p, 1); got != p.MeanLatency {
		t.Fatalf("BatchLatency(1) = %v, want %v", got, p.MeanLatency)
	}
	// A batch of 8 must cost far less than 8 separate frames but more
	// than one.
	b8 := BatchLatency(p, 8)
	if b8 <= p.MeanLatency || b8 >= 8*p.MeanLatency/2 {
		t.Fatalf("BatchLatency(8) = %v out of range", b8)
	}
	perFrame := b8 / 8
	speedup := float64(p.MeanLatency) / float64(perFrame)
	if speedup < 3 {
		t.Fatalf("per-frame amortization %.2fx, want >= 3x", speedup)
	}
}

// TestInferBatchMatchesInferDecisions: batched inference makes the
// same feature-space decision per frame as single-frame inference
// (label noise aside), at amortized per-frame cost; and at the
// profile's own accuracy, noise included, Infer is a batch of one.
func TestInferBatchMatchesInferDecisions(t *testing.T) {
	cs := testClasses(t)
	// Top1Accuracy 1.0 disables label noise so decisions are
	// deterministic and comparable.
	profile := MobileNetV2
	profile.Top1Accuracy = 1.0
	a, err := NewClassifier(profile, cs, 5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewClassifier(profile, cs, 5)
	if err != nil {
		t.Fatal(err)
	}
	ims := batchImages(t, cs, 8)
	batched, err := a.InferBatch(ims)
	if err != nil {
		t.Fatal(err)
	}
	if len(batched) != len(ims) {
		t.Fatalf("got %d results for %d frames", len(batched), len(ims))
	}
	for i, im := range ims {
		single, err := b.Infer(im)
		if err != nil {
			t.Fatal(err)
		}
		if batched[i].Label != single.Label {
			t.Fatalf("frame %d: batch label %q, single %q", i, batched[i].Label, single.Label)
		}
		if batched[i].Latency >= single.Latency {
			t.Fatalf("frame %d: batched latency %v not cheaper than single %v",
				i, batched[i].Latency, single.Latency)
		}
		if batched[i].EnergyMJ >= single.EnergyMJ {
			t.Fatalf("frame %d: batched energy %v not cheaper than single %v",
				i, batched[i].EnergyMJ, single.EnergyMJ)
		}
	}
	if _, err := a.InferBatch(nil); err != nil {
		t.Fatalf("empty batch: %v", err)
	}
	if _, err := a.InferBatch([]*vision.Image{nil}); err == nil {
		t.Fatal("nil image in batch: want error")
	}

	// Twin classifiers at MobileNetV2's 0.92 draw the same noise, so a
	// misclassified frame must come out of both paths the same.
	if a, err = NewClassifier(MobileNetV2, cs, 9); err != nil {
		t.Fatal(err)
	}
	if b, err = NewClassifier(MobileNetV2, cs, 9); err != nil {
		t.Fatal(err)
	}
	ims = batchImages(t, cs, 40)
	wrong := 0
	for i := range 600 {
		im := ims[i%len(ims)]
		single, err := a.Infer(im)
		if err != nil {
			t.Fatal(err)
		}
		batched, err := b.InferBatch([]*vision.Image{im})
		if err != nil {
			t.Fatal(err)
		}
		if single != batched[0] {
			t.Fatalf("call %d: Infer %+v, InferBatch of one %+v", i, single, batched[0])
		}
		if !single.Correct {
			wrong++
		}
	}
	if wrong == 0 {
		t.Fatal("no call was misclassified: the noisy path went untested")
	}
}

func TestBatcherConfigValidate(t *testing.T) {
	if err := DefaultBatcherConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (BatcherConfig{MaxBatch: 0, MaxWait: time.Millisecond}).Validate(); err == nil {
		t.Fatal("want error for MaxBatch 0")
	}
	if err := (BatcherConfig{MaxBatch: 8}).Validate(); err == nil {
		t.Fatal("want error for MaxWait 0")
	}
	cs := testClasses(t)
	c, err := NewClassifier(MobileNetV2, cs, 5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewBatcher(BatcherConfig{}, c); err == nil {
		t.Fatal("want error for invalid config")
	}
	if _, err := NewBatcher(DefaultBatcherConfig(), nil); err == nil {
		t.Fatal("want error for nil classifier")
	}
}

// TestBatcherFullFlush: MaxBatch concurrent callers form exactly one
// full batch.
func TestBatcherFullFlush(t *testing.T) {
	cs := testClasses(t)
	c, err := NewClassifier(MobileNetV2, cs, 5)
	if err != nil {
		t.Fatal(err)
	}
	// A long MaxWait proves the flush came from the size bound.
	b, err := NewBatcher(BatcherConfig{MaxBatch: 4, MaxWait: 10 * time.Second}, c)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	ims := batchImages(t, cs, 4)
	var wg sync.WaitGroup
	for _, im := range ims {
		wg.Add(1)
		go func(im *vision.Image) {
			defer wg.Done()
			if _, err := b.Infer(im); err != nil {
				t.Error(err)
			}
		}(im)
	}
	wg.Wait()
	st := b.Stats()
	if st.Batches != 1 || st.SizeSum != 4 || st.FullFlushes != 1 || st.DeadlineFlushes != 0 {
		t.Fatalf("stats = %+v, want one full batch of 4", st)
	}
	if st.AvgSize() != 4 {
		t.Fatalf("AvgSize = %v, want 4", st.AvgSize())
	}
}

// TestBatcherDeadlineFlush: a lone caller is released by the MaxWait
// timer, not stuck waiting for a full batch.
func TestBatcherDeadlineFlush(t *testing.T) {
	cs := testClasses(t)
	c, err := NewClassifier(MobileNetV2, cs, 5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewBatcher(BatcherConfig{MaxBatch: 8, MaxWait: time.Millisecond}, c)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	im := batchImages(t, cs, 1)[0]
	done := make(chan error, 1)
	go func() {
		_, err := b.Infer(im)
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("lone caller never released")
	}
	st := b.Stats()
	if st.DeadlineFlushes != 1 || st.Batches != 1 || st.SizeSum != 1 {
		t.Fatalf("stats = %+v, want one deadline batch of 1", st)
	}
}

// TestBatcherCloseDrains: Close flushes pending work; later calls get
// the typed ErrBatcherClosed instead of unspecified behavior.
func TestBatcherCloseDrains(t *testing.T) {
	cs := testClasses(t)
	c, err := NewClassifier(MobileNetV2, cs, 5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewBatcher(BatcherConfig{MaxBatch: 8, MaxWait: 10 * time.Second}, c)
	if err != nil {
		t.Fatal(err)
	}
	im := batchImages(t, cs, 1)[0]
	done := make(chan error, 1)
	go func() {
		_, err := b.Infer(im)
		done <- err
	}()
	// Wait for the call to be queued, then close.
	for {
		b.mu.Lock()
		queued := len(b.pending) == 1
		b.mu.Unlock()
		if queued {
			break
		}
		time.Sleep(time.Millisecond)
	}
	b.Close()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	// Post-close calls are refused with the typed error.
	if _, err := b.Infer(im); !errors.Is(err, ErrBatcherClosed) {
		t.Fatalf("post-close Infer err = %v, want ErrBatcherClosed", err)
	}
	b.Close() // double-close is a no-op
	if got := b.Stats().Batches; got != 1 {
		t.Fatalf("Batches = %d, want 1 (post-close calls are refused)", got)
	}
}

// TestBatcherInferRacesClose: many goroutines submitting while another
// closes the batcher, under -race. Every caller gets either a result or
// the typed ErrBatcherClosed — no hangs, no unspecified fallthrough.
func TestBatcherInferRacesClose(t *testing.T) {
	cs := testClasses(t)
	c, err := NewClassifier(MobileNetV2, cs, 5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewBatcher(BatcherConfig{MaxBatch: 4, MaxWait: time.Millisecond}, c)
	if err != nil {
		t.Fatal(err)
	}
	ims := batchImages(t, cs, 4)
	var served, refused atomic.Int64
	var wg sync.WaitGroup
	start := make(chan struct{})
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			for i := 0; i < 25; i++ {
				inf, err := b.Infer(ims[(w+i)%len(ims)])
				switch {
				case err == nil:
					if inf.Label == "" {
						t.Error("empty label on successful call")
						return
					}
					served.Add(1)
				case errors.Is(err, ErrBatcherClosed):
					refused.Add(1)
				default:
					t.Errorf("unexpected error: %v", err)
					return
				}
			}
		}(w)
	}
	close(start)
	time.Sleep(2 * time.Millisecond)
	b.Close()
	wg.Wait()
	if served.Load()+refused.Load() != 200 {
		t.Fatalf("served %d + refused %d != 200 calls", served.Load(), refused.Load())
	}
	if refused.Load() == 0 {
		t.Log("close won no races this run (timing-dependent); still exercised under -race")
	}
}

// TestBatcherQueueBound: frames above MaxPending are refused with
// ErrQueueFull instead of queueing without bound.
func TestBatcherQueueBound(t *testing.T) {
	cs := testClasses(t)
	c, err := NewClassifier(MobileNetV2, cs, 5)
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	slow := &gatedBatchClassifier{inner: c, release: release}
	// MaxWait is short only so the final lone-frame call below is
	// released by a deadline flush quickly; the bound checks all happen
	// while the gated model holds a full flush in flight.
	b, err := NewBatcher(BatcherConfig{MaxBatch: 2, MaxWait: 20 * time.Millisecond, MaxPending: 2}, slow)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	ims := batchImages(t, cs, 3)
	// Two frames fill the bound (and full-flush into the gated model).
	errs := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func(i int) {
			_, err := b.Infer(ims[i])
			errs <- err
		}(i)
	}
	// Wait until both are admitted and blocked in InferBatch.
	for slow.calls.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	// The third frame exceeds MaxPending while the first two are still
	// in flight.
	if _, err := b.Infer(ims[2]); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("over-bound Infer err = %v, want ErrQueueFull", err)
	}
	if got := b.Stats().Overflows; got != 1 {
		t.Fatalf("Overflows = %d, want 1", got)
	}
	close(release)
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	// With the queue drained the bound admits work again.
	if _, err := b.Infer(ims[2]); err != nil {
		t.Fatalf("post-drain Infer err = %v", err)
	}
}

// gatedBatchClassifier blocks InferBatch until released, to hold frames
// in flight deterministically.
type gatedBatchClassifier struct {
	inner   BatchClassifier
	release chan struct{}
	calls   atomic.Int64
}

func (g *gatedBatchClassifier) Profile() Profile { return g.inner.Profile() }
func (g *gatedBatchClassifier) Infer(im *vision.Image) (Inference, error) {
	return g.inner.Infer(im)
}
func (g *gatedBatchClassifier) InferBatch(ims []*vision.Image) ([]Inference, error) {
	g.calls.Add(1)
	<-g.release
	return g.inner.InferBatch(ims)
}

// TestBatcherStaleDrop: a frame whose deadline passes while it waits in
// the pending queue is dropped at dispatch time with ErrExpiredInQueue;
// a frame already expired on arrival is refused immediately.
func TestBatcherStaleDrop(t *testing.T) {
	cs := testClasses(t)
	c, err := NewClassifier(MobileNetV2, cs, 5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewBatcher(BatcherConfig{MaxBatch: 8, MaxWait: 20 * time.Millisecond}, c)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	im := batchImages(t, cs, 1)[0]
	// Already expired on arrival: refused without queueing.
	if _, err := b.InferDeadline(im, time.Now().Add(-time.Millisecond)); !errors.Is(err, ErrExpiredInQueue) {
		t.Fatalf("expired-on-arrival err = %v, want ErrExpiredInQueue", err)
	}
	// Deadline shorter than MaxWait: expires in the pending queue, so
	// the deadline flush stale-drops it.
	if _, err := b.InferDeadline(im, time.Now().Add(2*time.Millisecond)); !errors.Is(err, ErrExpiredInQueue) {
		t.Fatalf("expired-in-queue err = %v, want ErrExpiredInQueue", err)
	}
	st := b.Stats()
	if st.ExpiredDrops != 2 {
		t.Fatalf("ExpiredDrops = %d, want 2", st.ExpiredDrops)
	}
	if st.SizeSum != 0 {
		t.Fatalf("SizeSum = %d, want 0 (accelerator never saw the frames)", st.SizeSum)
	}
	// A generous deadline still completes normally.
	if _, err := b.InferDeadline(im, time.Now().Add(10*time.Second)); err != nil {
		t.Fatalf("in-deadline call err = %v", err)
	}
	if !IsOverloadError(ErrQueueFull) || !IsOverloadError(ErrExpiredInQueue) || IsOverloadError(ErrBatcherClosed) {
		t.Fatal("IsOverloadError misclassifies")
	}
}

// TestBatcherConcurrentStress: many goroutines through a small batcher
// under -race; every caller gets a result.
func TestBatcherConcurrentStress(t *testing.T) {
	cs := testClasses(t)
	c, err := NewClassifier(MobileNetV2, cs, 5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewBatcher(BatcherConfig{MaxBatch: 4, MaxWait: time.Millisecond}, c)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	ims := batchImages(t, cs, 8)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				inf, err := b.Infer(ims[(w+i)%len(ims)])
				if err != nil {
					t.Error(err)
					return
				}
				if inf.Label == "" {
					t.Error("empty label")
					return
				}
			}
		}(w)
	}
	wg.Wait()
	// Every submitted frame is dispatched once, in batches of at most
	// MaxBatch.
	st := b.Stats()
	if st.SizeSum != 8*20 {
		t.Fatalf("SizeSum = %d, want %d frames submitted", st.SizeSum, 8*20)
	}
	if st.Batches*4 < st.SizeSum {
		t.Fatalf("inconsistent stats %+v", st)
	}
}

// TestBatcherDropsFramesThatExpireWaitingForTheModel: batches reach the
// model one at a time, and a frame whose deadline passes while its batch
// waits behind another is dropped then, never run.
func TestBatcherDropsFramesThatExpireWaitingForTheModel(t *testing.T) {
	cs := testClasses(t)
	c, err := NewClassifier(MobileNetV2, cs, 5)
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	slow := &gatedBatchClassifier{inner: c, release: release}
	b, err := NewBatcher(BatcherConfig{MaxBatch: 1, MaxWait: time.Millisecond}, slow)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	ims := batchImages(t, cs, 2)
	held := make(chan error, 1)
	go func() {
		_, err := b.Infer(ims[0])
		held <- err
	}()
	for slow.calls.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	late := make(chan error, 1)
	go func() {
		_, err := b.InferDeadline(ims[1], time.Now().Add(20*time.Millisecond))
		late <- err
	}()
	time.Sleep(40 * time.Millisecond)
	close(release)
	if err := <-held; err != nil {
		t.Fatal(err)
	}
	if err := <-late; !errors.Is(err, ErrExpiredInQueue) {
		t.Fatalf("frame that expired behind a batch: err = %v, want ErrExpiredInQueue", err)
	}
	if calls, st := slow.calls.Load(), b.Stats(); calls != 1 || st.ExpiredDrops != 1 || st.SizeSum != 1 {
		t.Fatalf("model calls %d, stats %+v; want 1 call, 1 expired drop, 1 frame run", calls, st)
	}
}

// TestBatcherRefusesFramesThatCannotFinishInTime: a bounded batcher
// refuses with ErrQueueFull a frame whose deadline falls before the batch
// ahead of it and its own could finish at the measured batch time. A
// frame without a deadline, or with room, still queues.
func TestBatcherRefusesFramesThatCannotFinishInTime(t *testing.T) {
	cs := testClasses(t)
	c, err := NewClassifier(MobileNetV2, cs, 5)
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	slow := &gatedBatchClassifier{inner: c, release: release}
	b, err := NewBatcher(BatcherConfig{MaxBatch: 1, MaxWait: time.Millisecond}, slow)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	ims := batchImages(t, cs, 3)
	// One batch held for 30 ms is the batcher's measure of the model.
	go func() {
		time.Sleep(30 * time.Millisecond)
		release <- struct{}{}
	}()
	if _, err := b.Infer(ims[0]); err != nil {
		t.Fatal(err)
	}
	errs := make(chan error, 2)
	go func() {
		_, err := b.Infer(ims[1])
		errs <- err
	}()
	for slow.calls.Load() < 2 {
		time.Sleep(time.Millisecond)
	}
	// Behind the held batch, a frame needs about two batch times. A
	// refusal is immediate; a frame queued instead would wait for the
	// held batch.
	refused := make(chan error, 1)
	go func() {
		_, err := b.InferDeadline(ims[2], time.Now().Add(30*time.Millisecond))
		refused <- err
	}()
	select {
	case err := <-refused:
		if !errors.Is(err, ErrQueueFull) {
			close(release)
			t.Fatalf("frame with no room: err = %v, want ErrQueueFull", err)
		}
	case <-time.After(time.Second):
		close(release)
		t.Fatal("frame with no room was queued, not refused")
	}
	if got := b.Stats().Overflows; got != 1 {
		t.Fatalf("Overflows = %d, want 1", got)
	}
	go func() {
		_, err := b.InferDeadline(ims[2], time.Now().Add(10*time.Second))
		errs <- err
	}()
	close(release)
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if st := b.Stats(); st.SizeSum != 3 {
		t.Fatalf("SizeSum = %d, want 3 (the refused frame never ran)", st.SizeSum)
	}
}
