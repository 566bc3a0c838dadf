package cachestore

import (
	"bufio"
	"bytes"
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"
	"strings"
	"time"

	"approxcache/internal/feature"
	"approxcache/internal/lsh"
)

// snapshotFormatVersion guards against incompatible snapshot files.
// Version 2 adds a checksummed header so a torn write (power loss
// mid-save, truncated copy) is detected before any entry is trusted.
const (
	snapshotFormatVersion       = 2
	snapshotMagic               = "approxcache-snapshot"
	snapshotHeaderFmt           = snapshotMagic + " v%d crc32=%08x\n"
	snapshotMaxHeaderLen        = 128
	snapshotMaxPayloadMegabytes = 256
)

// ErrCorruptSnapshot is returned by Import when the snapshot cannot be
// decoded or fails validation — a truncated write, a partial download,
// bit rot. The store is left exactly as it was: a damaged warm-start
// file must never poison a running cache, it just means a cold start.
var ErrCorruptSnapshot = errors.New("cachestore: corrupt snapshot")

// wireEntry is the serialized form of one cache entry. Timestamps and
// hit counts are deliberately not persisted: an imported entry starts a
// fresh life under the importer's clock and policy.
type wireEntry struct {
	Vec        []float64 `json:"vec"`
	Label      string    `json:"label"`
	Confidence float64   `json:"confidence"`
	Source     string    `json:"source"`
	// SavedCostMicros carries the avoided cost in microseconds
	// (encoding/json has no native duration support).
	SavedCostMicros int64 `json:"savedCostMicros"`
	// Shadow-audit quality state. All fields are additive: a v2
	// snapshot without them decodes to zeros (a fresh, unaudited
	// entry), and older readers ignore them, so the format version
	// stays 2.
	Confirms    int  `json:"confirms,omitempty"`
	Refutes     int  `json:"refutes,omitempty"`
	ParoleFails int  `json:"paroleFails,omitempty"`
	Quarantined bool `json:"quarantined,omitempty"`
}

// wireSnapshot is the snapshot file layout.
type wireSnapshot struct {
	Version int         `json:"version"`
	Entries []wireEntry `json:"entries"`
}

// snapshotEncoder builds a snapshot payload one entry at a time, so a
// writer never needs every entry's vector materialized at once. The
// payload is byte for byte json.Marshal of a wireSnapshot holding the
// same entries. The caller adds a consistent, sorted entry set, so equal
// stores produce byte-identical snapshots. Shared by every store shape.
type snapshotEncoder struct {
	payload bytes.Buffer
	entries int
}

func newSnapshotEncoder() *snapshotEncoder {
	enc := &snapshotEncoder{}
	fmt.Fprintf(&enc.payload, `{"version":%d,"entries":[`, snapshotFormatVersion)
	return enc
}

// add appends e; e.Vec is only read during the call, so the caller may
// reuse its backing array for the next entry.
func (enc *snapshotEncoder) add(e Entry) error {
	b, err := json.Marshal(wireEntry{
		Vec:             e.Vec,
		Label:           e.Label,
		Confidence:      e.Confidence,
		Source:          e.Source,
		SavedCostMicros: e.SavedCost.Microseconds(),
		Confirms:        e.Confirms,
		Refutes:         e.Refutes,
		ParoleFails:     e.ParoleFails,
		Quarantined:     e.Quarantined,
	})
	if err != nil {
		return fmt.Errorf("cachestore: export: %w", err)
	}
	if enc.entries > 0 {
		enc.payload.WriteByte(',')
	}
	enc.payload.Write(b)
	enc.entries++
	return nil
}

// writeTo closes the payload and writes the snapshot: a header line
// carrying the format version and the payload's CRC-32, then the JSON
// payload.
func (enc *snapshotEncoder) writeTo(w io.Writer) error {
	enc.payload.WriteString("]}")
	payload := enc.payload.Bytes()
	if _, err := fmt.Fprintf(w, snapshotHeaderFmt,
		snapshotFormatVersion, crc32.ChecksumIEEE(payload)); err != nil {
		return fmt.Errorf("cachestore: export: %w", err)
	}
	if _, err := w.Write(payload); err != nil {
		return fmt.Errorf("cachestore: export: %w", err)
	}
	return nil
}

// readSnapshot decodes and fully validates a snapshot from r without
// touching any store: the caller only sees entries that passed the
// checksum, strict JSON decoding, and per-entry validation, so import
// is all-or-nothing. A file without the header line has no checksum to
// trust and is corrupt. Shared by every store shape.
func readSnapshot(r io.Reader) (wireSnapshot, error) {
	in, err := decodeV2(bufio.NewReader(r))
	if err != nil {
		return wireSnapshot{}, err
	}
	for i, e := range in.Entries {
		if len(e.Vec) == 0 || e.Label == "" {
			return wireSnapshot{}, fmt.Errorf("%w: entry %d invalid", ErrCorruptSnapshot, i)
		}
		for _, v := range e.Vec {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return wireSnapshot{}, fmt.Errorf("%w: entry %d has non-finite vector", ErrCorruptSnapshot, i)
			}
		}
	}
	return in, nil
}

// Export writes all live entries to w in the checksummed snapshot
// format. The entry set is encoded in one consistent read-locked pass
// (concurrent inserts land either wholly before or wholly after it),
// straight from the entry table: no intermediate Snapshot, one vector
// buffer reused for every entry.
func (s *Store) Export(w io.Writer) error {
	enc := newSnapshotEncoder()
	if err := s.encodeInto(enc); err != nil {
		return err
	}
	return enc.writeTo(w)
}

// encodeInto adds every record to enc in ID order under the read lock.
func (s *Store) encodeInto(enc *snapshotEncoder) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	rows := make([]int32, len(s.recs))
	for i := range rows {
		rows[i] = int32(i)
	}
	slices.SortFunc(rows, func(a, b int32) int { return cmp.Compare(s.recs[a].id, s.recs[b].id) })
	var vec feature.Vector
	for _, i := range rows {
		r := &s.recs[i]
		vec = s.vecOf(r, vec)
		if err := enc.add(r.entry(vec)); err != nil {
			return err
		}
	}
	return nil
}

// Import reads a snapshot from r and inserts its entries, subject to
// the store's normal capacity and eviction rules. It returns how many
// entries were inserted. Imported entries keep their labels and costs
// but start with fresh recency/frequency state.
//
// The snapshot is checksum-verified (v2), fully decoded, and validated
// before anything is inserted: a truncated, bit-flipped, or otherwise
// corrupt file returns ErrCorruptSnapshot (wrapped, with detail) and
// leaves the store untouched.
func (s *Store) Import(r io.Reader) (int, error) {
	in, err := readSnapshot(r)
	if err != nil {
		return 0, err
	}
	inserted := 0
	for i, e := range in.Entries {
		id, err := s.Insert(feature.Vector(e.Vec), e.Label, e.Confidence, e.Source,
			time.Duration(e.SavedCostMicros)*time.Microsecond)
		if err != nil {
			return inserted, fmt.Errorf("cachestore: import entry %d: %w", i, err)
		}
		s.applyWireQuality(id, e)
		inserted++
	}
	return inserted, nil
}

// applyWireQuality restores an imported entry's shadow-audit state,
// re-quarantining it (pulling it back out of the candidate index) if
// the snapshot recorded it as quarantined. A warm start must not
// silently rehabilitate entries the previous run had condemned.
func (s *Store) applyWireQuality(id lsh.ID, e wireEntry) {
	if e.Confirms == 0 && e.Refutes == 0 && e.ParoleFails == 0 && !e.Quarantined {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	r := s.recLocked(id)
	if r == nil {
		return // evicted by a later entry of the same import
	}
	r.confirms = narrow(e.Confirms)
	r.refutes = narrow(e.Refutes)
	r.paroleFails = narrow(e.ParoleFails)
	if e.Quarantined && !r.quarantined {
		s.quarantineLocked(r)
	}
}

// narrow clamps a counter read from a snapshot file into a record's
// counter range.
func narrow(n int) uint32 {
	return uint32(min(max(int64(n), 0), math.MaxUint32))
}

// decodeV2 parses a headered snapshot: the header line names the
// version and the payload checksum, and the payload must match it.
func decodeV2(br *bufio.Reader) (wireSnapshot, error) {
	var in wireSnapshot
	header, err := readHeaderLine(br)
	if err != nil {
		return in, err
	}
	var version int
	var sum uint32
	if n, err := fmt.Sscanf(strings.TrimSuffix(header, "\n"),
		snapshotMagic+" v%d crc32=%x", &version, &sum); err != nil || n != 2 {
		return in, fmt.Errorf("%w: malformed header %q", ErrCorruptSnapshot, header)
	}
	if version != snapshotFormatVersion {
		return in, fmt.Errorf("%w: version %d, want %d",
			ErrCorruptSnapshot, version, snapshotFormatVersion)
	}
	payload, err := io.ReadAll(io.LimitReader(br, snapshotMaxPayloadMegabytes<<20))
	if err != nil {
		return in, fmt.Errorf("%w: %v", ErrCorruptSnapshot, err)
	}
	if got := crc32.ChecksumIEEE(payload); got != sum {
		return in, fmt.Errorf("%w: checksum %08x, header says %08x", ErrCorruptSnapshot, got, sum)
	}
	if err := decodeStrict(payload, &in); err != nil {
		return in, err
	}
	if in.Version != snapshotFormatVersion {
		return in, fmt.Errorf("%w: payload version %d, want %d",
			ErrCorruptSnapshot, in.Version, snapshotFormatVersion)
	}
	return in, nil
}

// decodeStrict unmarshals payload, rejecting trailing garbage a plain
// json.Decoder would silently ignore.
func decodeStrict(payload []byte, in *wireSnapshot) error {
	dec := json.NewDecoder(bytes.NewReader(payload))
	if err := dec.Decode(in); err != nil {
		return fmt.Errorf("%w: %v", ErrCorruptSnapshot, err)
	}
	var trailer json.RawMessage
	if err := dec.Decode(&trailer); !errors.Is(err, io.EOF) {
		return fmt.Errorf("%w: trailing data after payload", ErrCorruptSnapshot)
	}
	return nil
}

// readHeaderLine reads the newline-terminated header, bounding how far
// it will scan so a garbage file cannot buffer unboundedly.
func readHeaderLine(br *bufio.Reader) (string, error) {
	var b bytes.Buffer
	for b.Len() <= snapshotMaxHeaderLen {
		c, err := br.ReadByte()
		if err != nil {
			return "", fmt.Errorf("%w: truncated header", ErrCorruptSnapshot)
		}
		b.WriteByte(c)
		if c == '\n' {
			return b.String(), nil
		}
	}
	return "", fmt.Errorf("%w: header too long", ErrCorruptSnapshot)
}
