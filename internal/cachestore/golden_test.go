package cachestore

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"

	"approxcache/internal/feature"
	"approxcache/internal/lsh"
	"approxcache/internal/simclock"
)

// parentGolden is the SHA-256 of everything goldenTranscript observes.
// It was first recorded at the last commit that stored one
// heap-allocated Entry (with its own vector clone) per cached result, and
// re-recorded when TTL expiry went: at the commit before, with the TTL
// set to zero and the expiry count left out of the printed stats. It
// was re-recorded once more when Parole stopped returning an outcome:
// at the commit before, printing QuarantineStats after each parole in
// place of the outcome.
const parentGolden = "d6edbad628585bd7b9f690793e1b64722145d08c6fb4be6ea5838f6fa6f008ef"

// goldenTranscript runs a fixed, seeded operation sequence through a
// store over the default index shape, and renders everything a caller
// can see of it — entries read by ID along the way, the final Snapshot,
// the Export bytes — into one byte stream.
func goldenTranscript(t *testing.T) []byte {
	t.Helper()
	const dim = 16
	idx, err := lsh.NewHyperplane(dim, 12, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	clk := simclock.NewVirtual(time.Unix(0, 0))
	s, err := New(Config{Capacity: 48, Policy: CostAware, QuarantineThreshold: 2}, idx, clk)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	render := func(e Entry) {
		fmt.Fprintf(&out, "%d %q %x %q %d %d %d %d %d %d %d %v", e.ID, e.Label, math.Float64bits(e.Confidence),
			e.Source, e.SavedCost, e.InsertedAt.UnixNano(), e.LastAccess.UnixNano(),
			e.Hits, e.Confirms, e.Refutes, e.ParoleFails, e.Quarantined)
		for _, x := range e.Vec {
			fmt.Fprintf(&out, " %x", math.Float64bits(x))
		}
		out.WriteByte('\n')
	}
	rng := rand.New(rand.NewSource(15))
	var last lsh.ID
	pick := func() lsh.ID { return last - lsh.ID(rng.Intn(60)) }
	for op := 0; op < 2000; op++ {
		clk.Advance(time.Duration(rng.Intn(5)) * 40 * time.Millisecond)
		switch r := rng.Intn(16); {
		case r < 6 || last == 0:
			v := make(feature.Vector, dim)
			for d := range v {
				v[d] = rng.Float64()
			}
			cost := time.Duration(1+rng.Intn(4)) * time.Millisecond
			if last, err = s.Insert(v, fmt.Sprintf("class-%d", rng.Intn(5)), rng.Float64(), []string{"dnn", "peer"}[rng.Intn(2)], cost); err != nil {
				t.Fatal(err)
			}
		case r < 8:
			if e, ok := s.get(pick()); ok {
				render(e)
			}
		case r < 10:
			s.Touch(pick())
		case r == 10:
			s.Confirm(pick())
		case r < 13:
			id := pick()
			s.Refute(id)
			if e, _ := s.get(id); e.Quarantined {
				s.Parole(id, rng.Intn(2) == 0)
				fmt.Fprintf(&out, "parole %d %+v\n", id, s.QuarantineStats())
			}
		case r == 13:
			s.Remove(pick())
		case r == 14:
			clk.Advance(time.Duration(rng.Intn(8)) * time.Second)
			if l, ok := s.Label(pick()); ok {
				fmt.Fprintf(&out, "label %q\n", l)
			}
		default:
			snap := s.Snapshot()
			sort.Slice(snap, func(i, j int) bool { return snap[i].ID < snap[j].ID })
			for _, e := range snap {
				render(e)
			}
			fmt.Fprintf(&out, "%+v %+v\n", s.QuarantineStats(), s.Stats())
		}
	}
	if err := s.Export(&out); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// TestObservablesMatchParentGolden: the by-value entry table hands out
// byte for byte what the pointer-per-entry store did for the same
// operation sequence.
func TestObservablesMatchParentGolden(t *testing.T) {
	tr := goldenTranscript(t)
	sum := sha256.Sum256(tr)
	if got := hex.EncodeToString(sum[:]); got != parentGolden {
		t.Fatalf("transcript (%d bytes) hashes to %s, the parent's to %s", len(tr), got, parentGolden)
	}
}
