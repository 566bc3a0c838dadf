package cachestore

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"reflect"
	"strings"
	"testing"
	"time"
)

// framed puts a valid header on payload, so a test of what Import makes
// of a payload is not stopped at the checksum.
func framed(payload string) string {
	return fmt.Sprintf(snapshotHeaderFmt, snapshotFormatVersion, crc32.ChecksumIEEE([]byte(payload))) + payload
}

func exportedSnapshot(t *testing.T) string {
	t.Helper()
	src, _ := newTestStore(t, Config{Capacity: 8})
	if _, err := src.Insert(vec(1, 0), "door", 0.9, "dnn", 100*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if _, err := src.Insert(vec(0, 1), "sign", 0.8, "peer", 80*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := src.Export(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func TestExportHeaderFormat(t *testing.T) {
	snap := exportedSnapshot(t)
	if !strings.HasPrefix(snap, snapshotMagic+" v2 crc32=") {
		t.Fatalf("snapshot header = %q", snap[:40])
	}
	line := snap[:strings.IndexByte(snap, '\n')+1]
	if len(line) > snapshotMaxHeaderLen {
		t.Fatalf("header length %d exceeds bound", len(line))
	}
}

func TestExportDeterministic(t *testing.T) {
	// Equal stores must produce byte-identical snapshots, whatever the
	// map iteration order happened to be.
	mk := func() string {
		src, _ := newTestStore(t, Config{Capacity: 16})
		for i := 0; i < 8; i++ {
			if _, err := src.Insert(vec(float64(i), 1), "x", 0.9, "dnn", time.Millisecond); err != nil {
				t.Fatal(err)
			}
		}
		var buf bytes.Buffer
		if err := src.Export(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	a, b := mk(), mk()
	if a != b {
		t.Fatal("export is not deterministic")
	}
}

func TestImportDetectsBitFlips(t *testing.T) {
	snap := exportedSnapshot(t)
	body := strings.IndexByte(snap, '\n') + 1
	for _, pos := range []int{body + 2, body + 10, len(snap) - 3} {
		flipped := []byte(snap)
		flipped[pos] ^= 0x40
		dst, _ := newTestStore(t, Config{Capacity: 8})
		n, err := dst.Import(bytes.NewReader(flipped))
		if !errors.Is(err, ErrCorruptSnapshot) {
			t.Fatalf("flip at %d: err = %v, want ErrCorruptSnapshot", pos, err)
		}
		if n != 0 || dst.Len() != 0 {
			t.Fatalf("flip at %d inserted %d entries", pos, n)
		}
	}
}

func TestImportHeaderErrors(t *testing.T) {
	dst, _ := newTestStore(t, Config{Capacity: 8})
	cases := []string{
		snapshotMagic + " v99 crc32=00000000\n{}",               // future version
		snapshotMagic + " vX crc32=00000000\n{}",                // garbage version
		snapshotMagic + " v2 crc32=deadbeef\n{\"version\":2}",   // wrong checksum
		snapshotMagic + " v2 crc32=" + strings.Repeat("f", 200), // unterminated, too long
		snapshotMagic, // truncated at magic
		snapshotMagic + " v2 crc32=29df1cc3\n{\"version\":2} junk", // checksum won't match edited payload
	}
	for i, c := range cases {
		if n, err := dst.Import(strings.NewReader(c)); !errors.Is(err, ErrCorruptSnapshot) || n != 0 {
			t.Fatalf("case %d: n=%d err=%v, want ErrCorruptSnapshot", i, n, err)
		}
	}
}

func TestImportRejectsNonFiniteVectors(t *testing.T) {
	// JSON can't carry NaN directly, but 1e999 decodes to +Inf via
	// legacy float parsing paths; guard the validation regardless.
	dst, _ := newTestStore(t, Config{Capacity: 8})
	bad := framed(`{"version":2,"entries":[{"vec":[1,1e999],"label":"x","confidence":1,"source":"dnn"}]}`)
	if _, err := dst.Import(strings.NewReader(bad)); !errors.Is(err, ErrCorruptSnapshot) {
		// Some decoders reject 1e999 outright; either way it must not land.
		if err == nil {
			t.Fatal("non-finite vector accepted")
		}
	}
	if dst.Len() != 0 {
		t.Fatal("non-finite entry inserted")
	}
}

func TestImportRejectsHeaderless(t *testing.T) {
	// A pre-header snapshot (bare JSON, version 1) carries no checksum:
	// it is corrupt like any other file without the magic.
	legacy := `{"version":1,"entries":[
		{"vec":[1,0],"label":"cat","confidence":0.9,"source":"dnn","savedCostMicros":1000}
	]}`
	dst, _ := newTestStore(t, Config{Capacity: 8})
	if _, err := dst.Insert(vec(0, 1), "dog", 0.9, "dnn", time.Millisecond); err != nil {
		t.Fatal(err)
	}
	before := dst.Snapshot()
	n, err := dst.Import(strings.NewReader(legacy))
	if !errors.Is(err, ErrCorruptSnapshot) || n != 0 {
		t.Fatalf("headerless import = %d, %v, want ErrCorruptSnapshot", n, err)
	}
	if after := dst.Snapshot(); !reflect.DeepEqual(after, before) {
		t.Fatalf("rejected import changed the store: %+v -> %+v", before, after)
	}
}

func TestImportTrailingGarbage(t *testing.T) {
	dst, _ := newTestStore(t, Config{Capacity: 8})
	withTrailer := framed(`{"version":2,"entries":[]}{"version":2}`)
	if _, err := dst.Import(strings.NewReader(withTrailer)); !errors.Is(err, ErrCorruptSnapshot) {
		t.Fatalf("trailing garbage accepted: %v", err)
	}
}
