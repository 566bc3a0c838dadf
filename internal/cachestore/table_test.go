package cachestore

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"approxcache/internal/feature"
	"approxcache/internal/lsh"
	"approxcache/internal/simclock"
)

// refStore is the store's specification for the model-based test: a
// plain map of exported Entry values, each keeping its own copy of its
// vector, with time.Time stamps and int counters. It knows nothing of
// the entry table or of where vectors live.
type refStore struct {
	cfg       Config
	entries   map[lsh.ID]*Entry
	nextID    lsh.ID
	evictions int
	expiries  int
	q         QuarantineStats // Total, Paroled, Evicted; Active is derived
}

func newRefStore(cfg Config) *refStore {
	return &refStore{cfg: cfg, entries: make(map[lsh.ID]*Entry), nextID: 1}
}

func (m *refStore) expired(e *Entry, now time.Time) bool {
	return m.cfg.TTL > 0 && now.Sub(e.InsertedAt) > m.cfg.TTL
}

// purge is what every purging operation of the store (Insert, Nearest,
// Snapshot, Stats, Export, QuarantinedEntries) does first.
func (m *refStore) purge(now time.Time) {
	for id, e := range m.entries {
		if m.expired(e, now) {
			delete(m.entries, id)
			m.expiries++
		}
	}
}

// refWorse is the eviction order as the pointer-per-entry store defined
// it, on exported Entry values: policy value, then LastAccess as
// time.Time, then ID. It reports whether a is evicted before b.
func refWorse(policy Policy, a, b *Entry) bool {
	av := float64(a.SavedCost) * float64(a.Hits+1)
	bv := float64(b.SavedCost) * float64(b.Hits+1)
	switch {
	case policy == LFU && a.Hits != b.Hits:
		return a.Hits < b.Hits
	case policy == CostAware && av != bv:
		return av < bv
	case !a.LastAccess.Equal(b.LastAccess):
		return a.LastAccess.Before(b.LastAccess)
	default:
		return a.ID < b.ID
	}
}

// victim is the entry refWorse evicts first.
func (m *refStore) victim() lsh.ID {
	var best *Entry
	for _, e := range m.entries {
		if best == nil || refWorse(m.cfg.Policy, e, best) {
			best = e
		}
	}
	return best.ID
}

func (m *refStore) insert(now time.Time, v feature.Vector, label string, conf float64, source string, cost time.Duration) lsh.ID {
	m.purge(now)
	for len(m.entries) >= m.cfg.Capacity {
		delete(m.entries, m.victim())
		m.evictions++
	}
	id := m.nextID
	m.nextID++
	m.entries[id] = &Entry{
		ID: id, Vec: v.Clone(), Label: label, Confidence: conf, Source: source,
		SavedCost: cost, InsertedAt: now, LastAccess: now,
	}
	return id
}

func (m *refStore) get(id lsh.ID, now time.Time) (*Entry, bool) {
	e, ok := m.entries[id]
	if !ok || m.expired(e, now) {
		return nil, false
	}
	return e, true
}

func (m *refStore) refute(id lsh.ID) bool {
	e, ok := m.entries[id]
	if !ok || e.Quarantined {
		return false
	}
	e.Refutes++
	if m.cfg.QuarantineThreshold <= 0 || e.Refutes < m.cfg.QuarantineThreshold {
		return false
	}
	e.Quarantined = true
	m.q.Total++
	return true
}

func (m *refStore) parole(id lsh.ID, ok bool) ParoleOutcome {
	e, live := m.entries[id]
	if !live || !e.Quarantined {
		return ParoleMissing
	}
	if ok {
		e.Quarantined, e.Refutes, e.ParoleFails = false, 0, 0
		m.q.Paroled++
		return ParoleReinstated
	}
	e.ParoleFails++
	if e.ParoleFails >= paroleFailLimit {
		delete(m.entries, id)
		m.q.Evicted++
		return ParoleEvicted
	}
	return ParoleHeld
}

func (m *refStore) quarantineStats() QuarantineStats {
	st := m.q
	for _, e := range m.entries {
		if e.Quarantined {
			st.Active++
		}
	}
	return st
}

// sorted returns the model's entries in ID order.
func (m *refStore) sorted(keep func(*Entry) bool) []Entry {
	out := make([]Entry, 0, len(m.entries))
	for _, e := range m.entries {
		if keep == nil || keep(e) {
			out = append(out, *e)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// exportBytes is the snapshot the pointer-per-entry store wrote: every
// entry marshalled as one wireSnapshot value behind the checksum header.
func (m *refStore) exportBytes(t *testing.T) []byte {
	t.Helper()
	out := wireSnapshot{Version: snapshotFormatVersion, Entries: []wireEntry{}}
	for _, e := range m.sorted(nil) {
		out.Entries = append(out.Entries, wireEntry{
			Vec: e.Vec, Label: e.Label, Confidence: e.Confidence, Source: e.Source,
			SavedCostMicros: e.SavedCost.Microseconds(),
			Confirms:        e.Confirms, Refutes: e.Refutes, ParoleFails: e.ParoleFails,
			Quarantined: e.Quarantined,
		})
	}
	payload, err := json.Marshal(out)
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	fmt.Fprintf(&b, snapshotHeaderFmt, snapshotFormatVersion, crc32.ChecksumIEEE(payload))
	b.Write(payload)
	return b.Bytes()
}

// sameEntry compares two entries field by field, vectors bit by bit.
func sameEntry(a, b Entry) bool {
	if len(a.Vec) != len(b.Vec) {
		return false
	}
	for i := range a.Vec {
		if math.Float64bits(a.Vec[i]) != math.Float64bits(b.Vec[i]) {
			return false
		}
	}
	a.Vec, b.Vec = nil, nil
	ta, tb := a.InsertedAt.Equal(b.InsertedAt), a.LastAccess.Equal(b.LastAccess)
	a.InsertedAt, b.InsertedAt, a.LastAccess, b.LastAccess = time.Time{}, time.Time{}, time.Time{}, time.Time{}
	return ta && tb && fmt.Sprintf("%+v", a) == fmt.Sprintf("%+v", b)
}

func sameEntries(t *testing.T, what string, got, want []Entry) {
	t.Helper()
	sort.Slice(got, func(i, j int) bool { return got[i].ID < got[j].ID })
	if len(got) != len(want) {
		t.Fatalf("%s: %d entries, model has %d", what, len(got), len(want))
	}
	for i := range got {
		if !sameEntry(got[i], want[i]) {
			t.Fatalf("%s: entry %d\n got  %+v\n want %+v", what, i, got[i], want[i])
		}
	}
}

const modelDim = 8

// modelIndexes are the index shapes the model test runs the store over.
// Every in-tree one is a VectorSource; "hidden" is the shape a wrapper
// that predates the interface presents (the benchmark's traced index).
var modelIndexes = []struct {
	name   string
	source bool
	build  func() (lsh.Index, error)
}{
	{"hyperplane", true, func() (lsh.Index, error) { return lsh.NewHyperplane(modelDim, 5, 3, 7) }},
	{"exact", true, func() (lsh.Index, error) { return lsh.NewExact(modelDim) }},
	{"hidden", false, func() (lsh.Index, error) {
		idx, err := lsh.NewHyperplane(modelDim, 5, 3, 7)
		return plainIndex{idx}, err
	}},
}

// modelVec draws an all-positive vector far from the origin (so
// hyperplane buckets are skewed), near one of a few centers (so lookups
// find neighbors).
func modelVec(rng *rand.Rand) feature.Vector {
	v := make(feature.Vector, modelDim)
	c := float64(rng.Intn(4))
	for d := range v {
		v[d] = 5 + c*0.3*float64(d%3) + rng.Float64()*0.2
	}
	return v
}

// TestStoreMatchesModel drives seeded random operation sequences through
// the store and the plain-map reference in lockstep, under every policy
// and over every index shape, and requires every observable — Get,
// Label, Answer, Snapshot, Export bytes, counters, the eviction victim —
// to agree after each step, with vectors bit-identical to what was
// inserted however often their entry moved between the index and the
// table (quarantine, parole, slot recycling).
func TestStoreMatchesModel(t *testing.T) {
	for _, ix := range modelIndexes {
		for _, policy := range []Policy{LRU, LFU, CostAware} {
			ix, policy := ix, policy
			t.Run(ix.name+"/"+policy.String(), func(t *testing.T) {
				t.Parallel()
				runModel(t, ix.build, ix.source, policy)
			})
		}
	}
}

func runModel(t *testing.T, build func() (lsh.Index, error), source bool, policy Policy) {
	cfg := Config{Capacity: 40, Policy: policy, TTL: 30 * time.Second, QuarantineThreshold: 2}
	idx, err := build()
	if err != nil {
		t.Fatal(err)
	}
	clk := simclock.NewVirtual(time.Unix(0, 0))
	s, err := New(cfg, idx, clk)
	if err != nil {
		t.Fatal(err)
	}
	if (s.src != nil) != source {
		t.Fatalf("store sees a VectorSource: %v, want %v", s.src != nil, source)
	}
	m := newRefStore(cfg)
	rng := rand.New(rand.NewSource(int64(policy) * 101))
	labels := []string{"cat", "dog", "bus"}
	var ids []lsh.ID
	pick := func() lsh.ID { // mostly recent IDs, sometimes long-dead ones
		if rng.Intn(4) == 0 {
			return ids[rng.Intn(len(ids))]
		}
		return ids[len(ids)-1-rng.Intn(min(len(ids), cfg.Capacity))]
	}
	// pickLive concentrates on a few of the model's entries passing
	// keep, so refutes pile up on one entry and paroles find it.
	pickLive := func(keep func(*Entry) bool) lsh.ID {
		if live := m.sorted(keep); len(live) > 0 {
			return live[rng.Intn(min(len(live), 4))].ID
		}
		return pick()
	}
	outcomes := map[ParoleOutcome]int{}
	var exports, quarantines int
	for op := 0; op < 1500; op++ {
		clk.Advance(time.Duration(rng.Intn(4)) * 50 * time.Millisecond)
		now := clk.Now()
		switch r := rng.Intn(20); {
		case r < 7 || len(ids) == 0:
			v := modelVec(rng)
			label, src := labels[rng.Intn(len(labels))], []string{"dnn", "peer"}[rng.Intn(2)]
			conf, cost := 0.5+rng.Float64()/2, time.Duration(1+rng.Intn(3))*time.Millisecond
			var victim lsh.ID
			if m.purge(now); len(m.entries) >= cfg.Capacity {
				victim = m.victim()
			}
			want := m.insert(now, v, label, conf, src, cost)
			id, err := s.Insert(v, label, conf, src, cost)
			if err != nil || id != want {
				t.Fatalf("op %d: Insert = %d, %v; model assigns %d", op, id, err, want)
			}
			if _, alive := s.Get(victim); victim != 0 && alive {
				t.Fatalf("op %d: model evicts %d, the store kept it", op, victim)
			}
			v[0] = math.NaN() // the caller's slice is the caller's again
			ids = append(ids, id)
		case r < 9:
			id := pick()
			got, ok := s.Get(id)
			want, wok := m.get(id, now)
			if ok != wok || (ok && !sameEntry(got, *want)) {
				t.Fatalf("op %d: Get(%d) = %+v (%v), model %+v (%v)", op, id, got, ok, want, wok)
			}
			if ok {
				got.Vec[0] = -1 // so is a copy the store handed out
			}
		case r < 11:
			id := pick()
			label, ok := s.Label(id)
			alabel, aconf, aok := s.Answer(id)
			want, wok := m.get(id, now)
			if aok != wok || (aok && (alabel != want.Label || aconf != want.Confidence)) {
				t.Fatalf("op %d: Answer(%d) = %q %v (%v), model %+v (%v)", op, id, alabel, aconf, aok, want, wok)
			}
			if wantLabel := wok && !want.Quarantined; ok != wantLabel || (ok && label != want.Label) {
				t.Fatalf("op %d: Label(%d) = %q (%v), model %+v (%v)", op, id, label, ok, want, wok)
			}
		case r < 13:
			id := pick()
			s.Touch(id)
			if e, ok := m.entries[id]; ok {
				e.LastAccess = now
				e.Hits++
			}
		case r == 13:
			id := pick()
			s.Confirm(id)
			if e, ok := m.entries[id]; ok {
				e.Confirms++
				e.Refutes = max(e.Refutes-1, 0)
			}
		case r < 16:
			id := pickLive(func(e *Entry) bool { return !e.Quarantined })
			got, want := s.Refute(id), m.refute(id)
			if got != want || s.Quarantined(id) != (m.entries[id] != nil && m.entries[id].Quarantined) {
				t.Fatalf("op %d: Refute(%d) = %v, model %v", op, id, got, want)
			}
			if got {
				quarantines++
			}
		case r == 16:
			id, ok := pickLive(func(e *Entry) bool { return e.Quarantined }), rng.Intn(3) == 0
			got, want := s.Parole(id, ok), m.parole(id, ok)
			if got != want {
				t.Fatalf("op %d: Parole(%d, %v) = %v, model %v", op, id, ok, got, want)
			}
			outcomes[got]++
		case r == 17:
			id := pick()
			s.Remove(id)
			delete(m.entries, id)
		case r == 18:
			clk.Advance(time.Duration(rng.Intn(12)) * time.Second)
			now = clk.Now()
			q := modelVec(rng)
			ns, err := s.NearestWithinInto(q, 4, math.Inf(1), nil)
			if err != nil {
				t.Fatal(err)
			}
			m.purge(now)
			for _, n := range ns {
				e, ok := m.entries[n.ID]
				if !ok || e.Quarantined {
					t.Fatalf("op %d: lookup returned %d, model has it live %v", op, n.ID, ok)
				}
				if d, _ := feature.Euclidean(q, e.Vec); d != n.Distance {
					t.Fatalf("op %d: neighbor %d at %v, its inserted vector is at %v", op, n.ID, n.Distance, d)
				}
			}
		default:
			var b bytes.Buffer
			if err := s.Export(&b); err != nil {
				t.Fatal(err)
			}
			m.purge(now)
			if want := m.exportBytes(t); !bytes.Equal(b.Bytes(), want) {
				t.Fatalf("op %d: Export wrote\n%s\nthe model's entries marshal to\n%s", op, b.Bytes(), want)
			}
			fresh, _ := newTestStoreDim(t, Config{Capacity: cfg.Capacity, QuarantineThreshold: 2}, modelDim)
			if n, err := fresh.Import(&b); err != nil || n != len(m.entries) {
				t.Fatalf("op %d: Import = %d, %v; exported %d", op, n, err, len(m.entries))
			}
			// IDs are reassigned in export (ID) order and lives start afresh;
			// everything the wire carries must survive.
			got, want := fresh.Snapshot(), m.sorted(nil)
			sort.Slice(got, func(i, j int) bool { return got[i].ID < got[j].ID })
			for i := range want {
				w := want[i]
				w.ID, w.Hits, w.InsertedAt, w.LastAccess = got[i].ID, 0, got[i].InsertedAt, got[i].LastAccess
				if !sameEntry(got[i], w) {
					t.Fatalf("op %d: imported entry %d\n got  %+v\n want %+v", op, i, got[i], w)
				}
			}
			exports++
		}

		// Every step: the table's invariants, the victim, the counters.
		s.mu.Lock()
		checkTable(t, s)
		victim, vok := s.victimLocked()
		s.mu.Unlock()
		if vok != (len(m.entries) > 0) || (vok && victim != m.victim()) {
			t.Fatalf("op %d: victim %d (%v), model picks %d of %d", op, victim, vok, m.victim(), len(m.entries))
		}
		if s.Len() != len(m.entries) || s.Evictions() != m.evictions || s.Expiries() != m.expiries {
			t.Fatalf("op %d: len/evictions/expiries %d/%d/%d, model %d/%d/%d", op,
				s.Len(), s.Evictions(), s.Expiries(), len(m.entries), m.evictions, m.expiries)
		}
		if op%25 == 0 { // these purge, so not every step
			m.purge(now)
			sameEntries(t, fmt.Sprintf("op %d: Snapshot", op), s.Snapshot(), m.sorted(nil))
			sameEntries(t, fmt.Sprintf("op %d: QuarantinedEntries", op), s.QuarantinedEntries(),
				m.sorted(func(e *Entry) bool { return e.Quarantined }))
			if got, want := s.QuarantineStats(), m.quarantineStats(); got != want {
				t.Fatalf("op %d: quarantine stats %+v, model %+v", op, got, want)
			}
			st, hits := s.Stats(), 0
			for _, e := range m.entries {
				hits += e.Hits
			}
			if st.Entries != len(m.entries) || st.TotalHits != hits {
				t.Fatalf("op %d: stats %+v, model has %d entries, %d hits", op, st, len(m.entries), hits)
			}
		}
	}
	if m.evictions == 0 || m.expiries == 0 || exports == 0 || quarantines == 0 ||
		outcomes[ParoleReinstated] == 0 || outcomes[ParoleHeld] == 0 || outcomes[ParoleEvicted] == 0 {
		t.Fatalf("workload too tame: %d evictions, %d expiries, %d exports, %d quarantines, parole outcomes %v",
			m.evictions, m.expiries, exports, quarantines, outcomes)
	}
}

// raceVec is the vector the race test inserts under id: readers can
// check any copy they are handed without sharing state with the writer.
func raceVec(id lsh.ID) feature.Vector {
	v := make(feature.Vector, modelDim)
	for d := range v {
		v[d] = 5 + float64(id)*1e-3 + float64(d%3)
	}
	return v
}

// TestTableReadersRace runs Label, Answer, Get and radius lookups
// against a writer that keeps the store at capacity while quarantining,
// paroling and removing entries — every move of a vector between the
// index arena and the table. Any vector a reader is handed must be
// exactly what was inserted under that ID. Run under -race.
func TestTableReadersRace(t *testing.T) {
	idx, err := lsh.NewHyperplane(modelDim, 5, 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Capacity: 32, QuarantineThreshold: 1}, idx, simclock.NewVirtual(time.Unix(0, 0)))
	if err != nil {
		t.Fatal(err)
	}
	const inserts = 3000
	var latest atomic.Uint64
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			var ns []lsh.Neighbor
			for {
				top := latest.Load()
				if top >= inserts {
					return
				}
				id := lsh.ID(top + 1 - uint64(rng.Intn(40)))
				if e, ok := s.Get(id); ok && (e.ID != id || !sameEntry(Entry{Vec: e.Vec}, Entry{Vec: raceVec(id)})) {
					t.Errorf("Get(%d) handed out id %d with vector %v", id, e.ID, e.Vec)
					return
				}
				s.Label(id)
				s.Answer(id)
				q := raceVec(id)
				var err error
				if ns, err = s.NearestWithinInto(q, 4, 0.5, ns[:0]); err != nil {
					t.Error(err)
					return
				}
				for _, n := range ns {
					if d, _ := feature.Euclidean(q, raceVec(n.ID)); d != n.Distance {
						t.Errorf("neighbor %d at %v, its inserted vector is at %v", n.ID, n.Distance, d)
						return
					}
				}
			}
		}(g)
	}
	for i := lsh.ID(1); i <= inserts; i++ {
		id, err := s.Insert(raceVec(i), "l", 0.9, "dnn", time.Millisecond)
		if err != nil || id != i {
			t.Errorf("Insert = %d, %v; want %d", id, err, i)
			break
		}
		latest.Store(uint64(i))
		if i%3 == 0 && s.Refute(i-2) {
			s.Parole(i-2, i%2 == 0)
		}
		if i%5 == 0 {
			s.Remove(i - 4)
		}
	}
	latest.Store(inserts)
	wg.Wait()
	s.mu.Lock()
	checkTable(t, s)
	s.mu.Unlock()
}

// randomDescriptors draws n uniform-random dim-d vectors: all-positive
// like image descriptors, with none of their clustering — the worst case
// for bucket sharing.
func randomDescriptors(n, dim int, seed int64) []feature.Vector {
	rng := rand.New(rand.NewSource(seed))
	vecs := make([]feature.Vector, n)
	for i := range vecs {
		vecs[i] = make(feature.Vector, dim)
		for d := range vecs[i] {
			vecs[i][d] = rng.Float64()
		}
	}
	return vecs
}

// settledHeap is HeapAlloc once the collector has settled.
func settledHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestStoreBytesPerEntry pins the cache's memory density: 1 024 80-d
// descriptors on the default 12-bit × 4-table index may cost at most
// 1 100 B of heap each, index included, for 640 B of payload. Storing
// every vector twice (once per entry, once in the index arena) measured
// 1 732 B.
func TestStoreBytesPerEntry(t *testing.T) {
	const n, dim = 1024, 80
	vecs := randomDescriptors(n, dim, 1)
	before := settledHeap()
	idx, err := lsh.NewHyperplane(dim, 12, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Capacity: n}, idx, simclock.NewVirtual(time.Unix(0, 0)))
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range vecs {
		if _, err := s.Insert(v, "label", 0.9, "dnn", time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	after := settledHeap()
	runtime.KeepAlive(vecs)
	runtime.KeepAlive(s)
	per := float64(after-before) / n
	t.Logf("%.0f B/entry (%d entries, %d B payload each)", per, n, dim*8)
	if per > 1100 {
		t.Fatalf("%.0f B of heap per entry, budget 1100", per)
	}
}

// TestOptionalReadsMatchFallback: Answer and QuarantinedEntries, the
// narrow reads, agree with the Get and Snapshot reads they stand in for.
func TestOptionalReadsMatchFallback(t *testing.T) {
	st, _ := newTestStoreDim(t, Config{Capacity: 64, QuarantineThreshold: 1}, shardTestDim)
	var ids []lsh.ID
	for _, v := range shardTestVecs(t, 24, 3) {
		id, err := st.Insert(v, fmt.Sprintf("l%d", len(ids)%5), 0.5+float64(len(ids))/100, "dnn", time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	for _, id := range ids[:6] {
		st.Refute(id)
	}
	for _, id := range append(ids, 9999) {
		l, c, ok := st.Answer(id)
		e, eok := st.Get(id)
		if l != e.Label || c != e.Confidence || ok != eok {
			t.Fatalf("Answer(%d) = %q %v %v, Get %q %v %v", id, l, c, ok, e.Label, e.Confidence, eok)
		}
	}
	var want []Entry
	for _, e := range st.Snapshot() {
		if e.Quarantined {
			want = append(want, e)
		}
	}
	got := st.QuarantinedEntries()
	sort.Slice(got, func(i, j int) bool { return got[i].ID < got[j].ID })
	sort.Slice(want, func(i, j int) bool { return want[i].ID < want[j].ID })
	sameEntries(t, "QuarantinedEntries", got, want)
	if len(got) != 6 {
		t.Fatalf("listed %d quarantined entries, want 6", len(got))
	}
}
