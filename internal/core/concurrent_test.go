package core

import (
	"sync"
	"testing"
	"time"

	"approxcache/internal/vision"
)

// TestEngineConcurrentProcess drives Process from several goroutines
// while others read the last result and stats. Run under -race this
// validates the engine's read/write lock split and the pooled per-frame
// scratch buffers (each concurrent frame must get its own vector and
// neighbor buffer, never a teammate's).
func TestEngineConcurrentProcess(t *testing.T) {
	fx := newFixture(t, DefaultConfig(), nil)
	frames := make([]*vision.Image, 6)
	for i := range frames {
		im, err := fx.classes.Prototype(i % 4)
		if err != nil {
			t.Fatal(err)
		}
		frames[i] = im
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				im := frames[(w*50+i)%len(frames)]
				res, err := fx.engine.Process(im, stationaryWindow(time.Duration(i)*time.Second))
				if err != nil {
					t.Error(err)
					return
				}
				if res.Label == "" {
					t.Error("empty label from Process")
					return
				}
			}
		}(w)
	}
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				fx.engine.lastResult()
				fx.engine.Stats().HitRate()
				if fx.store != nil {
					fx.store.Stats()
				}
			}
		}()
	}
	wg.Wait()
	if fx.store != nil && fx.store.Len() == 0 {
		t.Fatal("no cache entries after concurrent processing")
	}
}
