package approxcache_test

import (
	"bytes"
	"errors"
	"io"
	"sync"
	"testing"
	"time"

	"approxcache"
	"approxcache/internal/testutil"
)

// stubClassifier implements Classifier but not BatchClassifier, to
// exercise the BatchSize capability check.
type stubClassifier struct{ approxcache.Classifier }

func newPool(t *testing.T, sessions int, w *approxcache.Workload, opts approxcache.Options) *approxcache.Pool {
	t.Helper()
	clf, err := approxcache.NewSimulatedClassifier(approxcache.MobileNetV2, w, 1)
	if err != nil {
		t.Fatal(err)
	}
	if opts.Clock == nil {
		opts.Clock = approxcache.NewVirtualClock()
	}
	p, err := approxcache.NewPool(sessions, clf, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	return p
}

func TestNewPoolValidation(t *testing.T) {
	if _, err := approxcache.NewPool(2, nil, approxcache.Options{}); err == nil {
		t.Fatal("nil classifier accepted")
	}
	w := testWorkload(t, 10)
	clf, err := approxcache.NewSimulatedClassifier(approxcache.MobileNetV2, w, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := approxcache.NewPool(0, clf, approxcache.Options{}); err == nil {
		t.Fatal("pool of 0 sessions accepted")
	}
	// BatchSize requires batch-capable inference.
	if _, err := approxcache.NewPool(2, stubClassifier{clf}, approxcache.Options{BatchSize: 4}); err == nil {
		t.Fatal("BatchSize accepted for a classifier without InferBatch")
	}
}

// TestPoolConcurrentSessions drives the full serving-scale facade —
// one shared store, micro-batcher, N concurrent streams — under -race.
func TestPoolConcurrentSessions(t *testing.T) {
	const sessions = 4
	w := testWorkload(t, 40)
	p := newPool(t, sessions, w, approxcache.Options{
		BatchSize: 4,
	})
	var wg sync.WaitGroup
	for s := 0; s < sessions; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			c := p.Session(s)
			prev := time.Duration(0)
			for _, fr := range w.Frames {
				win := w.IMUWindow(prev, fr.Offset)
				prev = fr.Offset
				if _, err := c.ProcessWithTruth(fr.Image, win, approxcache.LabelOf(fr.Class)); err != nil {
					t.Error(err)
					return
				}
			}
		}(s)
	}
	wg.Wait()
	if got := p.Session(0).Stats().Frames(); got != sessions*len(w.Frames) {
		t.Fatalf("shared scoreboard saw %d frames, want %d", got, sessions*len(w.Frames))
	}
	if p.Session(0).Len() == 0 {
		t.Fatal("shared store is empty")
	}
	bs, ok := p.BatcherStats()
	if !ok || bs.SizeSum == 0 {
		t.Fatalf("batcher stats = %+v ok=%v", bs, ok)
	}
	// Every session's stats handle is the shared scoreboard.
	for s := 0; s < sessions; s++ {
		if p.Session(s).Stats() != p.Session(0).Stats() {
			t.Fatalf("session %d has a private scoreboard", s)
		}
	}
}

// TestPoolUnshardedUnbatched: the zero-valued serving options still
// yield a working pool (one store, no batcher).
func TestPoolUnshardedUnbatched(t *testing.T) {
	w := testWorkload(t, 10)
	p := newPool(t, 2, w, approxcache.Options{})
	replay(t, p.Session(0), w)
	if _, ok := p.BatcherStats(); ok {
		t.Fatal("unbatched pool reported batcher stats")
	}
	if p.Session(1).Len() == 0 {
		t.Fatal("store empty after replay")
	}
}

// TestPoolShutdownRace drives sessions mid-Process against a
// concurrent snapshot save and the pool shutdown, under -race. A
// Process that loses the race must either succeed (ladder absorbed the
// refusal) or fail with the typed ErrBatcherClosed — never panic or
// return an untyped error — and the batcher goroutine must not leak.
func TestPoolShutdownRace(t *testing.T) {
	const sessions = 4
	w := testWorkload(t, 30)
	checkLeak := testutil.LeakGuard(t, 2)
	clf, err := approxcache.NewSimulatedClassifier(approxcache.MobileNetV2, w, 1)
	if err != nil {
		t.Fatal(err)
	}
	p, err := approxcache.NewPool(sessions, clf, approxcache.Options{
		BatchSize: 4,
		Clock:     approxcache.NewVirtualClock(),
	})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for s := 0; s < sessions; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			c := p.Session(s)
			for round := 0; round < 3; round++ {
				prev := time.Duration(0)
				for _, fr := range w.Frames {
					win := w.IMUWindow(prev, fr.Offset)
					prev = fr.Offset
					_, err := c.Process(fr.Image, win)
					if err != nil && !errors.Is(err, approxcache.ErrBatcherClosed) {
						t.Errorf("session %d: untyped mid-shutdown error: %v", s, err)
						return
					}
				}
			}
		}(s)
	}
	// The snapshot save races both the streams and the shutdown.
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := p.Session(0).SaveSnapshot(io.Discard); err != nil {
			t.Errorf("snapshot save during shutdown: %v", err)
		}
	}()
	time.Sleep(2 * time.Millisecond) // let the streams get mid-Process
	p.Close()
	wg.Wait()
	p.Close() // second Close is a no-op
	// The micro-batcher's flush goroutine must have exited.
	checkLeak()
}

// TestShardedSnapshotFacade: Options.Shards is deprecated and ignored,
// so a cache built with it writes, byte for byte, the snapshot one built
// without it writes, and each warm-starts the other.
func TestShardedSnapshotFacade(t *testing.T) {
	w := testWorkload(t, 60)
	snapshot := func(c *approxcache.Cache) []byte {
		t.Helper()
		var buf bytes.Buffer
		if err := c.SaveSnapshot(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	sharded := newCache(t, w, approxcache.Options{Shards: 4})
	replay(t, sharded, w)
	plain := newCache(t, w, approxcache.Options{})
	replay(t, plain, w)
	if sharded.Len() == 0 {
		t.Fatal("cache empty after replay")
	}
	if !bytes.Equal(snapshot(sharded), snapshot(plain)) {
		t.Fatal("Shards: 4 changed the snapshot")
	}
	cold := newCache(t, w, approxcache.Options{Shards: 8})
	if n, err := cold.LoadSnapshot(bytes.NewReader(snapshot(plain))); err != nil || n != plain.Len() {
		t.Fatalf("load = %d, %v; want %d", n, err, plain.Len())
	}
}

// TestPoolShardsOptionIsNoOp: a batched pool built with Shards serves,
// frame for frame, exactly the Results one built without it serves,
// with its sessions driven round-robin from one goroutine.
func TestPoolShardsOptionIsNoOp(t *testing.T) {
	const sessions = 4
	w := testWorkload(t, 40)
	serve := func(opts approxcache.Options) []approxcache.Result {
		t.Helper()
		p := newPool(t, sessions, w, opts)
		var out []approxcache.Result
		prev := time.Duration(0)
		for _, fr := range w.Frames {
			win := w.IMUWindow(prev, fr.Offset)
			prev = fr.Offset
			for s := 0; s < sessions; s++ {
				res, err := p.Session(s).ProcessWithTruth(fr.Image, win, approxcache.LabelOf(fr.Class))
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, res)
			}
		}
		return out
	}
	want := serve(approxcache.Options{BatchSize: sessions})
	got := serve(approxcache.Options{Shards: 8, BatchSize: sessions})
	if len(got) != len(want) {
		t.Fatalf("%d results, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("frame %d: %+v, without Shards %+v", i, got[i], want[i])
		}
	}
}
