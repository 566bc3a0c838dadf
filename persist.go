package approxcache

import (
	"fmt"
	"io"
	"os"
	"path/filepath"

	"approxcache/internal/cachestore"
)

// ErrCorruptSnapshot is returned by LoadSnapshot when the snapshot file
// cannot be decoded or fails validation (truncated write, partial
// download, bit rot). The cache is left untouched — a damaged
// warm-start file just means a cold start.
var ErrCorruptSnapshot = cachestore.ErrCorruptSnapshot

// SaveSnapshot writes the cache's live entries to w as JSON, so a later
// session (or another device) can warm-start from them.
func (c *Cache) SaveSnapshot(w io.Writer) error {
	return c.store.Export(w)
}

// LoadSnapshot reads a snapshot from r into the cache, subject to its
// capacity and eviction policy, and returns how many entries were
// inserted.
//
// The snapshot is validated in full before anything is inserted: a
// corrupt or truncated file returns ErrCorruptSnapshot and leaves the
// cache exactly as it was.
func (c *Cache) LoadSnapshot(r io.Reader) (int, error) {
	return c.store.Import(r)
}

// SaveSnapshotFile atomically writes a snapshot to path: the bytes go
// to a temporary file in the same directory, are synced to disk, and
// only then renamed over path. A crash or power loss at any point
// leaves either the old complete snapshot or the new complete snapshot
// — never a torn file. Stray temporaries from interrupted saves are
// ignored by loads and overwritten by the next save's unique name.
func (c *Cache) SaveSnapshotFile(path string) (err error) {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("approxcache: save snapshot: %w", err)
	}
	defer func() {
		if err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	if err = c.store.Export(tmp); err != nil {
		return err
	}
	if err = tmp.Sync(); err != nil {
		return fmt.Errorf("approxcache: save snapshot: %w", err)
	}
	if err = tmp.Close(); err != nil {
		return fmt.Errorf("approxcache: save snapshot: %w", err)
	}
	if err = os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("approxcache: save snapshot: %w", err)
	}
	return nil
}

// LoadSnapshotFile reads a snapshot file written by SaveSnapshotFile
// (or any SaveSnapshot output) into the cache and returns how many
// entries were inserted. A missing file is not an error — it returns
// (0, nil), the cold-start case — while a corrupt one returns
// ErrCorruptSnapshot and leaves the cache untouched.
func (c *Cache) LoadSnapshotFile(path string) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, nil
		}
		return 0, fmt.Errorf("approxcache: load snapshot: %w", err)
	}
	defer f.Close()
	return c.store.Import(f)
}
