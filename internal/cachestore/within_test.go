package cachestore

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"approxcache/internal/feature"
	"approxcache/internal/lsh"
	"approxcache/internal/simclock"
)

// withinTestStore is what the radius-search tests drive.
type withinTestStore interface {
	Interface
	NearestWithinInto(q feature.Vector, k int, radius float64, dst []lsh.Neighbor) ([]lsh.Neighbor, error)
}

var _ withinTestStore = (*Store)(nil)

// plainIndex hides every optional method of an index, NearestInto and
// the radius search included, leaving lsh.Index alone.
type plainIndex struct{ lsh.Index }

// clusteredShardVecs draws unit vectors in tight clusters, so lookups
// have several neighbors inside the vote radius and exact duplicates.
func clusteredShardVecs(n int, seed int64) []feature.Vector {
	r := rand.New(rand.NewSource(seed))
	centers := make([]feature.Vector, 12)
	for c := range centers {
		v := make(feature.Vector, shardTestDim)
		for d := range v {
			v[d] = r.NormFloat64()
		}
		v.Normalize()
		centers[c] = v
	}
	out := make([]feature.Vector, n)
	for i := range out {
		if i%9 == 8 {
			out[i] = out[i-3].Clone() // exact duplicate: a distance tie
			continue
		}
		v := centers[r.Intn(len(centers))].Clone()
		for d := range v {
			v[d] += r.NormFloat64() * 0.02
		}
		out[i] = v
	}
	return out
}

// checkStoreWithin compares NearestWithinInto against NearestInto cut at
// the radius, at fixed radii and at every returned distance and its two
// neighbouring floats.
func checkStoreWithin(t *testing.T, name string, s withinTestStore, q feature.Vector, k int) {
	t.Helper()
	full, err := s.NearestInto(q, k, nil)
	if err != nil {
		t.Fatalf("%s: NearestInto: %v", name, err)
	}
	radii := []float64{0, 1e-9, 0.125, 0.25, 0.5, math.Inf(1), math.NaN(), -1}
	for _, n := range full {
		radii = append(radii, n.Distance, math.Nextafter(n.Distance, math.Inf(-1)), math.Nextafter(n.Distance, math.Inf(1)))
	}
	buf := make([]lsh.Neighbor, 0, k)
	for _, r := range radii {
		got, err := s.NearestWithinInto(q, k, r, buf)
		if err != nil {
			t.Fatalf("%s: NearestWithinInto(r=%v): %v", name, r, err)
		}
		want := full
		for i, n := range full {
			if n.Distance > r {
				want = full[:i]
				break
			}
		}
		if len(got) != len(want) {
			t.Fatalf("%s k=%d r=%v: got %v, want %v", name, k, r, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s k=%d r=%v rank %d: got %+v, want %+v", name, k, r, i, got[i], want[i])
			}
		}
	}
}

// TestStoreNearestWithinEqualsTruncatedNearest is the radius search's
// contract over the plain index and over an index with neither a radius
// search nor NearestInto of its own, under inserts, removals and
// evictions. (An index that hides only the radius search, and the
// package helper's fallback over a wrapped store, are the hidden axis of
// the engine model in internal/core.)
func TestStoreNearestWithinEqualsTruncatedNearest(t *testing.T) {
	clock := simclock.NewVirtual(time.Unix(0, 0))
	const capacity = 160
	newPlain := func(wrap func(*lsh.HyperplaneIndex) lsh.Index) *Store {
		idx, err := lsh.NewHyperplane(shardTestDim, 8, 4, 99)
		if err != nil {
			t.Fatal(err)
		}
		s, err := New(Config{Capacity: capacity}, wrap(idx), clock)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	stores := map[string]withinTestStore{
		"store":       newPlain(func(x *lsh.HyperplaneIndex) lsh.Index { return x }),
		"plain-index": newPlain(func(x *lsh.HyperplaneIndex) lsh.Index { return plainIndex{x} }),
	}
	vecs := clusteredShardVecs(260, 5)
	for name, s := range stores {
		rng := rand.New(rand.NewSource(6))
		var ids []lsh.ID
		for i, v := range vecs {
			id, err := s.Insert(v, fmt.Sprintf("class-%d", i%7), 0.9, "dnn", time.Millisecond)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			ids = append(ids, id)
			if i%5 == 4 {
				s.Remove(ids[rng.Intn(len(ids))])
			}
			if i%6 != 0 {
				continue
			}
			q := vecs[rng.Intn(i+1)].Clone()
			if rng.Intn(2) == 0 {
				q[rng.Intn(len(q))] += 0.03
			}
			for _, k := range []int{1, 4, 40} {
				checkStoreWithin(t, name, s, q, k)
			}
		}
		if s.Evictions() == 0 {
			t.Fatalf("%s: workload never evicted", name)
		}
	}
}

// TestStoreNearestWithinPurgesExpired: the radius search honours TTL
// expiry like NearestInto.
func TestStoreNearestWithinPurgesExpired(t *testing.T) {
	s, clk := newTestStore(t, Config{Capacity: 16, TTL: time.Second})
	if _, err := s.Insert(vec(1, 0), "stale", 0.9, "local", 10*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	clk.Advance(2 * time.Second)
	ns, err := s.NearestWithinInto(vec(1, 0), 4, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(ns) != 0 || s.Expiries() != 1 {
		t.Fatalf("expired entry surfaced: %+v (expiries %d)", ns, s.Expiries())
	}
}

// refVictim is eviction's specification: the minimum of the policy's
// total order over all live entries, taken in map order and compared as
// exported Entry values (time.Time stamps, int counters) rather than as
// table rows.
func refVictim(s *Store) (lsh.ID, bool) {
	var best *Entry
	for _, row := range s.slot {
		if e := s.recs[row].entry(nil); best == nil || refWorse(s.cfg.Policy, &e, best) {
			best = &e
		}
	}
	if best == nil {
		return 0, false
	}
	return best.ID, true
}

// checkTable asserts the entry table's invariants: the ID map and the
// rows mirror each other exactly, the quarantine gauge counts the
// quarantined rows, and the store owns an entry's vector exactly while
// the index cannot serve it.
func checkTable(t *testing.T, s *Store) {
	t.Helper()
	if len(s.recs) != len(s.slot) || len(s.recs) != s.Len() {
		t.Fatalf("table holds %d rows, map %d, Len %d", len(s.recs), len(s.slot), s.Len())
	}
	quarantined := 0
	for i := range s.recs {
		r := &s.recs[i]
		if row, ok := s.slot[r.id]; !ok || int(row) != i {
			t.Fatalf("row %d (id %d) is mapped to row %d (present %v)", i, r.id, row, ok)
		}
		if r.quarantined {
			quarantined++
		}
		if _, owns := s.owned[r.id]; owns != (r.quarantined || s.src == nil) {
			t.Fatalf("row %d (id %d, quarantined %v) on a VectorSource index %v: store owns its vector %v",
				i, r.id, r.quarantined, s.src != nil, owns)
		}
	}
	for id := range s.owned {
		if _, ok := s.slot[id]; !ok {
			t.Fatalf("store still owns the vector of departed id %d", id)
		}
	}
	if quarantined != s.qActive {
		t.Fatalf("%d quarantined rows, gauge says %d", quarantined, s.qActive)
	}
	if spare := s.recs[len(s.recs):cap(s.recs)]; len(spare) > 0 && spare[0] != (record{}) {
		t.Fatalf("vacated row still holds %+v", spare[0])
	}
}

// TestVictimMatchesMapScan: under every policy, through touches,
// removals, evictions, TTL expiry, quarantine and parole eviction, the
// entry table keeps its invariants and picks the victim a scan of the
// map picks.
func TestVictimMatchesMapScan(t *testing.T) {
	for _, policy := range []Policy{LRU, LFU, CostAware} {
		t.Run(policy.String(), func(t *testing.T) {
			s, clk := newTestStore(t, Config{
				Capacity: 24, Policy: policy, TTL: 40 * time.Second,
				QuarantineThreshold: 1,
			})
			rng := rand.New(rand.NewSource(int64(policy)))
			var ids []lsh.ID
			for op := 0; op < 600; op++ {
				clk.Advance(time.Duration(rng.Intn(3)) * 100 * time.Millisecond)
				switch r := rng.Intn(12); {
				case r < 6 || len(ids) == 0:
					cost := time.Duration(1+rng.Intn(3)) * time.Millisecond
					id, err := s.Insert(vec(rng.Float64(), rng.Float64()), "l", 0.9, "dnn", cost)
					if err != nil {
						t.Fatal(err)
					}
					ids = append(ids, id)
				case r < 9:
					s.Touch(ids[rng.Intn(len(ids))])
				case r == 9:
					s.Remove(ids[rng.Intn(len(ids))])
				case r == 10:
					id := ids[rng.Intn(len(ids))]
					// Up to two paroles: two failures evict the entry.
					for i := 0; i < 2 && (s.Refute(id) || s.Quarantined(id)); i++ {
						s.Parole(id, rng.Intn(2) == 0)
					}
				default:
					clk.Advance(15 * time.Second)
					if _, err := s.Nearest(vec(0.5, 0.5), 1); err != nil {
						t.Fatal(err)
					}
				}
				s.mu.Lock()
				checkTable(t, s)
				got, gok := s.victimLocked()
				want, wok := refVictim(s)
				s.mu.Unlock()
				if got != want || gok != wok {
					t.Fatalf("op %d: victim %d (%v), map scan picks %d (%v)", op, got, gok, want, wok)
				}
			}
			if s.Evictions() == 0 || s.Expiries() == 0 || s.QuarantineStats().Evicted == 0 {
				t.Fatalf("workload too tame: %d evictions, %d expiries, %d parole evictions",
					s.Evictions(), s.Expiries(), s.QuarantineStats().Evicted)
			}
		})
	}
}

// TestSnapshotsIndependentOfTableOrder: copies handed out carry nothing
// of the table's layout, so stores holding the same entries in
// different row orders produce equal snapshots.
func TestSnapshotsIndependentOfTableOrder(t *testing.T) {
	a, _ := newTestStore(t, Config{Capacity: 8})
	b, _ := newTestStore(t, Config{Capacity: 8})
	insert := func(s *Store, from, to int) {
		t.Helper()
		for i := from; i <= to; i++ {
			if _, err := s.Insert(vec(float64(i), 0), "l", 0.9, "dnn", time.Millisecond); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Both end up holding IDs {1,3,4,5,6}; a's removal moves row 6 into
	// the gap, b's moves row 5.
	insert(a, 1, 6)
	a.Remove(2)
	insert(b, 1, 5)
	b.Remove(2)
	insert(b, 6, 6)
	if a.recs[1].id == b.recs[1].id {
		t.Fatalf("tables ended up in the same order (row 1 holds id %d in both)", a.recs[1].id)
	}
	sa, sb := a.Snapshot(), b.Snapshot()
	sort.Slice(sa, func(i, j int) bool { return sa[i].ID < sa[j].ID })
	sort.Slice(sb, func(i, j int) bool { return sb[i].ID < sb[j].ID })
	if !reflect.DeepEqual(sa, sb) {
		t.Fatalf("snapshots differ:\n%+v\n%+v", sa, sb)
	}
	for _, e := range sa {
		if got, ok := b.Get(e.ID); !ok || !reflect.DeepEqual(got, e) {
			t.Fatalf("Get(%d) = %+v (%v), snapshot says %+v", e.ID, got, ok, e)
		}
	}
}
