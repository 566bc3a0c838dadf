package approxcache_test

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"approxcache"
)

func TestSaveSnapshotFileRoundTrip(t *testing.T) {
	w := testWorkload(t, 40)
	warm := newCache(t, w, approxcache.Options{})
	replay(t, warm, w)
	if warm.Len() == 0 {
		t.Fatal("warm cache is empty")
	}
	path := filepath.Join(t.TempDir(), "cache.snap")
	if err := warm.SaveSnapshotFile(path); err != nil {
		t.Fatal(err)
	}
	cold := newCache(t, w, approxcache.Options{})
	n, err := cold.LoadSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if n != warm.Len() {
		t.Fatalf("loaded %d entries, saved %d", n, warm.Len())
	}
	// No temp files left behind.
	dents, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range dents {
		if strings.Contains(d.Name(), ".tmp-") {
			t.Fatalf("stray temp file %q after save", d.Name())
		}
	}
}

func TestLoadSnapshotFileMissingIsColdStart(t *testing.T) {
	w := testWorkload(t, 10)
	c := newCache(t, w, approxcache.Options{})
	n, err := c.LoadSnapshotFile(filepath.Join(t.TempDir(), "never-written.snap"))
	if err != nil || n != 0 {
		t.Fatalf("missing file = %d, %v; want cold start (0, nil)", n, err)
	}
}

// A crash mid-save must leave the previous complete snapshot loadable:
// the save path writes a temp file and renames, so the real file is
// replaced atomically or not at all.
func TestKillDuringSaveLeavesPreviousSnapshotLoadable(t *testing.T) {
	w := testWorkload(t, 40)
	warm := newCache(t, w, approxcache.Options{})
	replay(t, warm, w)
	dir := t.TempDir()
	path := filepath.Join(dir, "cache.snap")
	if err := warm.SaveSnapshotFile(path); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Simulate dying mid-write: a half-written temp beside the target,
	// exactly what an interrupted SaveSnapshotFile leaves behind.
	stray := filepath.Join(dir, "cache.snap.tmp-1234")
	if err := os.WriteFile(stray, good[:len(good)/3], 0o644); err != nil {
		t.Fatal(err)
	}

	cold := newCache(t, w, approxcache.Options{})
	n, err := cold.LoadSnapshotFile(path)
	if err != nil || n == 0 {
		t.Fatalf("previous snapshot unloadable after interrupted save: %d, %v", n, err)
	}

	// The torn temp itself must be rejected as corrupt, not trusted.
	torn := newCache(t, w, approxcache.Options{})
	if _, err := torn.LoadSnapshotFile(stray); !errors.Is(err, approxcache.ErrCorruptSnapshot) {
		t.Fatalf("torn temp load = %v, want ErrCorruptSnapshot", err)
	}
	if torn.Len() != 0 {
		t.Fatal("torn temp polluted the cache")
	}
}

// Snapshots taken while frames are being processed must each be a
// consistent, loadable cut of the cache (run with -race to check the
// locking too).
func TestSaveSnapshotDuringProcessing(t *testing.T) {
	w := testWorkload(t, 120)
	c := newCache(t, w, approxcache.Options{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		prev := time.Duration(0)
		for _, fr := range w.Frames {
			win := w.IMUWindow(prev, fr.Offset)
			prev = fr.Offset
			if _, err := c.ProcessWithTruth(fr.Image, win, approxcache.LabelOf(fr.Class)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	var snaps []bytes.Buffer
	for i := 0; i < 10; i++ {
		var buf bytes.Buffer
		if err := c.SaveSnapshot(&buf); err != nil {
			t.Fatal(err)
		}
		snaps = append(snaps, buf)
	}
	wg.Wait()
	for i := range snaps {
		fresh := newCache(t, w, approxcache.Options{})
		if _, err := fresh.LoadSnapshot(&snaps[i]); err != nil {
			t.Fatalf("snapshot %d not loadable: %v", i, err)
		}
	}
}
