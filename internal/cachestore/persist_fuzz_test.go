package cachestore

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"approxcache/internal/lsh"
	"approxcache/internal/simclock"
)

// FuzzImport throws arbitrary bytes — seeded with real snapshots,
// truncations, and bit flips — at the snapshot decoder. Whatever the
// input, Import must never panic, and a failed import must leave the
// store empty (all-or-nothing). The seed corpus runs under plain
// `go test`, so CI exercises the interesting shapes without -fuzz.
func FuzzImport(f *testing.F) {
	// A genuine v2 snapshot as the prime seed.
	mkStore := func() *Store {
		idx, err := lsh.NewHyperplane(2, 4, 2, 1)
		if err != nil {
			f.Fatal(err)
		}
		s, err := New(Config{Capacity: 16}, idx, simclock.NewVirtual(time.Unix(0, 0)))
		if err != nil {
			f.Fatal(err)
		}
		return s
	}
	src := mkStore()
	if _, err := src.Insert([]float64{1, 0}, "door", 0.9, "dnn", 100*time.Millisecond); err != nil {
		f.Fatal(err)
	}
	if _, err := src.Insert([]float64{0, 1}, "sign", 0.8, "peer", 80*time.Millisecond); err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := src.Export(&buf); err != nil {
		f.Fatal(err)
	}
	good := buf.Bytes()

	f.Add(good)
	f.Add(good[:len(good)/2]) // truncated payload
	f.Add(good[:10])          // truncated header
	flip := append([]byte(nil), good...)
	flip[len(flip)/2] ^= 0x01
	f.Add(flip)                                   // bit rot
	f.Add([]byte(`{"version":1,"entries":[]}`))   // headerless: rejected
	f.Add([]byte(`{"version":99,"entries":[]}`))  // future version
	f.Add([]byte(snapshotMagic + " v2 crc32=zz")) // mangled header
	f.Add([]byte(snapshotMagic + " v2 crc32=00000000\n{}"))
	f.Add([]byte(strings.Repeat("A", 300))) // oversize junk header
	f.Add([]byte{})
	f.Add([]byte(framed(`{"version":2,"entries":[{"vec":[1e999],"label":"x"}]}`)))

	f.Fuzz(func(t *testing.T, data []byte) {
		dst := mkStore()
		n, err := dst.Import(bytes.NewReader(data))
		if err != nil {
			if n != 0 || dst.Len() != 0 {
				t.Fatalf("failed import inserted %d entries (len %d)", n, dst.Len())
			}
			return
		}
		if n != dst.Len() {
			t.Fatalf("reported %d inserts, store has %d", n, dst.Len())
		}
		// Whatever survived decoding must re-export cleanly.
		var out bytes.Buffer
		if err := dst.Export(&out); err != nil {
			t.Fatalf("re-export after import: %v", err)
		}
	})
}
