package dnn

import (
	"sync"
	"testing"
	"time"

	"approxcache/internal/testutil"
)

// TestBatcherCloseLeaksNothing: Close with callers queued and the MaxWait
// timer armed answers every caller, disarms the timer, and leaves no
// goroutine behind.
func TestBatcherCloseLeaksNothing(t *testing.T) {
	check := testutil.LeakGuard(t, 0)
	cs := testClasses(t)
	c, err := NewClassifier(MobileNetV2, cs, 5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewBatcher(BatcherConfig{MaxBatch: 8, MaxWait: time.Hour}, c)
	if err != nil {
		t.Fatal(err)
	}
	ims := batchImages(t, cs, 3)
	var wg sync.WaitGroup
	for _, im := range ims {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := b.Infer(im); err != nil {
				t.Error(err)
			}
		}()
	}
	for {
		b.mu.Lock()
		armed := len(b.pending) == len(ims) && b.timer != nil
		b.mu.Unlock()
		if armed {
			break
		}
		time.Sleep(time.Millisecond)
	}
	b.Close()
	wg.Wait()
	b.mu.Lock()
	timer := b.timer
	b.mu.Unlock()
	if timer != nil {
		t.Fatal("Close left the MaxWait timer armed")
	}
	if got := b.Stats().SizeSum; got != int64(len(ims)) {
		t.Fatalf("Close dispatched %d frames, want %d", got, len(ims))
	}
	check()
}
