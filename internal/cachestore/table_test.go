package cachestore

import (
	"bytes"
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
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
	q         QuarantineStats // Total, Paroled, Evicted; Active is derived
}

func newRefStore(cfg Config) *refStore {
	return &refStore{cfg: cfg, entries: make(map[lsh.ID]*Entry), nextID: 1}
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

func (m *refStore) get(id lsh.ID) (*Entry, bool) {
	e, ok := m.entries[id]
	return e, ok
}

// nearest is a brute-force top-k over the live, unquarantined entries,
// ordered by (distance, ID).
func (m *refStore) nearest(q feature.Vector, k int) []lsh.Neighbor {
	var out []lsh.Neighbor
	for _, e := range m.entries {
		if !e.Quarantined {
			d, _ := feature.Euclidean(q, e.Vec)
			out = append(out, lsh.Neighbor{ID: e.ID, Distance: d})
		}
	}
	slices.SortFunc(out, func(a, b lsh.Neighbor) int {
		return cmp.Or(cmp.Compare(a.Distance, b.Distance), cmp.Compare(a.ID, b.ID))
	})
	return out[:min(k, len(out))]
}

func (m *refStore) refute(id lsh.ID) {
	e, ok := m.entries[id]
	if !ok || e.Quarantined {
		return
	}
	e.Refutes++
	if m.cfg.QuarantineThreshold > 0 && e.Refutes >= m.cfg.QuarantineThreshold {
		e.Quarantined = true
		m.q.Total++
	}
}

func (m *refStore) parole(id lsh.ID, ok bool) {
	e, live := m.entries[id]
	if !live || !e.Quarantined {
		return
	}
	if ok {
		e.Quarantined, e.Refutes, e.ParoleFails = false, 0, 0
		m.q.Paroled++
		return
	}
	e.ParoleFails++
	if e.ParoleFails >= paroleFailLimit {
		delete(m.entries, id)
		m.q.Evicted++
	}
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

// reimport is the model of importing its own export into a new store
// of the same shape: IDs are reassigned in export (ID) order, lives
// start afresh at now, the audit state and everything else the wire
// carries is kept, and the new store's counters start from the
// re-quarantines. It returns the new IDs.
func (m *refStore) reimport(now time.Time) []lsh.ID {
	old := m.sorted(nil)
	*m = *newRefStore(m.cfg)
	ids := make([]lsh.ID, 0, len(old))
	for _, e := range old {
		e.ID, e.Hits, e.InsertedAt, e.LastAccess = m.nextID, 0, now, now
		m.nextID++
		if e.Quarantined {
			m.q.Total++
		}
		m.entries[e.ID] = &e
		ids = append(ids, e.ID)
	}
	return ids
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
	return ta && tb && reflect.DeepEqual(a, b)
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

// checkStoreWithin requires the radius search to return full — what
// NearestInto(q, k) returned — cut at the first neighbour farther than
// radius.
func checkStoreWithin(t *testing.T, what string, s *Store, q feature.Vector, k int, radius float64, full []lsh.Neighbor) {
	t.Helper()
	got, err := s.NearestWithinInto(q, k, radius, nil)
	if err != nil {
		t.Fatalf("%s: NearestWithinInto(r=%v): %v", what, radius, err)
	}
	want := full
	for i, n := range full {
		if n.Distance > radius {
			want = full[:i]
			break
		}
	}
	if !slices.Equal(got, want) {
		t.Fatalf("%s: NearestWithinInto(k=%d, r=%v) = %v, NearestInto cut at the radius is %v", what, k, radius, got, want)
	}
}

// plainIndex hides every optional method of an index, VectorSource and
// the radius search, leaving lsh.Index alone.
type plainIndex struct{ lsh.Index }

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

// Positions in modelIndexes.
const (
	hyperplane = iota
	exact
	hidden
)

// modelCell is one store configuration the model runs: an index shape,
// a policy and a capacity.
type modelCell struct {
	index    int
	policy   Policy
	capacity int
}

func (c modelCell) name() string {
	name := modelIndexes[c.index].name + "/" + c.policy.String()
	if c.capacity != 40 {
		name += fmt.Sprintf("/capacity-%d", c.capacity)
	}
	return name
}

// modelGrid is every index shape under every policy at capacity 40,
// then the capacity corner: three entries, so nearly every insert
// evicts. FuzzStoreModel's corpus addresses cells by position here.
func modelGrid() []modelCell {
	var cells []modelCell
	for ix := range modelIndexes {
		for _, p := range []Policy{LRU, LFU, CostAware} {
			cells = append(cells, modelCell{ix, p, 40})
		}
	}
	return append(cells, modelCell{exact, CostAware, 3})
}

// Op kinds.
const (
	opInsert = iota
	opGet
	opLabel // Label and Answer
	opTouch
	opConfirm
	opRefute
	opParole
	opRemove
	opLookup // NearestInto, Nearest and NearestWithinInto
	opExport // Export, then carry on with a new store that imported it
)

// opKinds weighs the kinds: a kind byte picks one of its slots.
var opKinds = func() []byte {
	var kinds []byte
	for kind, weight := range [...]int{opInsert: 21, opGet: 5, opLabel: 6, opTouch: 6, opConfirm: 2,
		opRefute: 6, opParole: 4, opRemove: 3, opLookup: 5, opExport: 2} {
		for ; weight > 0; weight-- {
			kinds = append(kinds, byte(kind))
		}
	}
	return kinds
}()

// modelOp is one step of a run: its kind, a clock step, and the bytes
// its choices are read from, one byte a choice.
type modelOp struct {
	kind, step byte
	arg        [14]byte
	next       int
}

const opBytes = 16

// decodeOps reads one op from every 16 bytes.
func decodeOps(b []byte) []modelOp {
	ops := make([]modelOp, len(b)/opBytes)
	for i := range ops {
		r := b[i*opBytes:]
		ops[i] = modelOp{kind: opKinds[int(r[0])%len(opKinds)], step: r[1] % 4}
		copy(ops[i].arg[:], r[2:opBytes])
	}
	return ops
}

func seededOps(seed int64, n int) []modelOp {
	b := make([]byte, n*opBytes)
	rand.New(rand.NewSource(seed)).Read(b)
	return decodeOps(b)
}

// intn reads the op's next choice, in [0, n).
func (o *modelOp) intn(n int) int {
	c := o.arg[o.next%len(o.arg)]
	o.next++
	return int(c) % n
}

// vec draws an all-positive vector far from the origin (so hyperplane
// buckets are skewed) at one of a few centers: exactly on it (so
// distances tie) or jittered around it.
func (o *modelOp) vec() feature.Vector {
	v := make(feature.Vector, modelDim)
	c := o.intn(8)
	for d := range v {
		v[d] = 5 + float64(c%4)*0.3*float64(d%3)
		if c < 4 {
			v[d] += float64(o.intn(256)) / 256 * 0.2
		}
	}
	return v
}

// modelKeys is what every grid cell's run must reach: among them a
// lookup at a radius equal to a returned distance ("lookup:boundary"),
// an import that carried a quarantined entry, and a lookup while that
// entry is still held.
var modelKeys = []string{"evict", "export", "quarantine", "parole:reinstated", "parole:held",
	"parole:evicted", "lookup:boundary", "import:quarantined", "import:continued"}

// runModel drives ops through the store and the plain-map reference in
// lockstep and requires every observable — an entry by ID, Label, Answer, the
// three lookups, Snapshot, QuarantinedEntries, Stats, Export bytes,
// counters, the eviction victim — to agree after each step, with
// vectors bit-identical to what was inserted however often their entry
// moved between the index and the table. An export continues on a new
// store that imported it. It returns the tally of what it reached.
func runModel(t *testing.T, cell modelCell, ops []modelOp) map[string]int {
	ix := modelIndexes[cell.index]
	cfg := Config{Capacity: cell.capacity, Policy: cell.policy, QuarantineThreshold: 2}
	clk := simclock.NewVirtual(time.Unix(0, 0))
	newStore := func() *Store {
		idx, err := ix.build()
		if err != nil {
			t.Fatal(err)
		}
		s, err := New(cfg, idx, clk)
		if err != nil {
			t.Fatal(err)
		}
		if (s.src != nil) != ix.source {
			t.Fatalf("store sees a VectorSource: %v, want %v", s.src != nil, ix.source)
		}
		return s
	}
	s, m := newStore(), newRefStore(cfg)
	reached := map[string]int{}
	bank := func() { reached["evict"] += m.evictions }
	labels := []string{"cat", "dog", "bus"}
	var ids, carried []lsh.ID // carried: quarantined when the last import brought them
	dst := make([]lsh.Neighbor, 0, 40)
	for i := range ops {
		op := &ops[i]
		clk.Advance(time.Duration(op.step) * 50 * time.Millisecond)
		now := clk.Now()
		// pick is mostly a recent ID, sometimes a long-dead one; pickLive
		// concentrates on a few of the model's entries passing keep, so
		// refutes pile up on one entry and paroles find it.
		pick := func() lsh.ID {
			if op.intn(4) == 0 {
				return ids[op.intn(len(ids))]
			}
			return ids[len(ids)-1-op.intn(min(len(ids), cfg.Capacity))]
		}
		pickLive := func(keep func(*Entry) bool) lsh.ID {
			if live := m.sorted(keep); len(live) > 0 {
				return live[op.intn(min(len(live), 4))].ID
			}
			return pick()
		}
		full := i%25 == 0 // and after an import: compare every entry
		switch kind := op.kind; {
		case kind == opInsert || len(ids) == 0:
			v := op.vec()
			label, src := labels[op.intn(len(labels))], []string{"dnn", "peer"}[op.intn(2)]
			conf, cost := 0.5+float64(op.intn(256))/512, time.Duration(1+op.intn(3))*time.Millisecond
			var victim lsh.ID
			if len(m.entries) >= cfg.Capacity {
				victim = m.victim()
			}
			want := m.insert(now, v, label, conf, src, cost)
			id, err := s.Insert(v, label, conf, src, cost)
			if err != nil || id != want {
				t.Fatalf("op %d: Insert = %d, %v; model assigns %d", i, id, err, want)
			}
			if _, alive := s.get(victim); victim != 0 && alive {
				t.Fatalf("op %d: model evicts %d, the store kept it", i, victim)
			}
			v[0] = math.NaN() // the caller's slice is the caller's again
			ids = append(ids, id)
		case kind == opGet:
			id := pick()
			got, ok := s.get(id)
			want, wok := m.get(id)
			if ok != wok || (ok && !sameEntry(got, *want)) {
				t.Fatalf("op %d: get(%d) = %+v (%v), model %+v (%v)", i, id, got, ok, want, wok)
			}
			if ok {
				got.Vec[0] = -1 // so is a copy the store handed out
				reached["get"]++
			}
		case kind == opLabel:
			id := pick()
			if op.intn(2) == 0 { // Label refuses a quarantined entry, Answer does not
				id = pickLive(func(e *Entry) bool { return e.Quarantined })
			}
			label, ok := s.Label(id)
			alabel, aconf, aok := s.Answer(id)
			want, wok := m.get(id)
			if aok != wok || (aok && (alabel != want.Label || aconf != want.Confidence)) {
				t.Fatalf("op %d: Answer(%d) = %q %v (%v), model %+v (%v)", i, id, alabel, aconf, aok, want, wok)
			}
			if wantLabel := wok && !want.Quarantined; ok != wantLabel || (ok && label != want.Label) {
				t.Fatalf("op %d: Label(%d) = %q (%v), model %+v (%v)", i, id, label, ok, want, wok)
			}
			if wok && want.Quarantined {
				reached["answer:quarantined"]++
			}
		case kind == opTouch:
			id := pick()
			s.Touch(id)
			if e, ok := m.entries[id]; ok {
				e.LastAccess = now
				e.Hits++
				reached["touch"]++
			}
		case kind == opConfirm:
			id := pick()
			s.Confirm(id)
			if e, ok := m.entries[id]; ok {
				e.Confirms++
				e.Refutes = max(e.Refutes-1, 0)
			}
		case kind == opRefute:
			id := pickLive(func(e *Entry) bool { return !e.Quarantined })
			before := s.QuarantineStats()
			s.Refute(id)
			m.refute(id)
			after := checkVerdict(t, fmt.Sprintf("op %d: Refute(%d)", i, id), s, m, id)
			if after.Total > before.Total {
				reached["quarantine"]++
			}
		case kind == opParole:
			id, ok := pickLive(func(e *Entry) bool { return e.Quarantined }), op.intn(3) == 0
			before := s.QuarantineStats()
			s.Parole(id, ok)
			m.parole(id, ok)
			after := checkVerdict(t, fmt.Sprintf("op %d: Parole(%d, %v)", i, id, ok), s, m, id)
			switch e, live := s.get(id); {
			case after.Paroled > before.Paroled:
				reached["parole:reinstated"]++
			case after.Evicted > before.Evicted:
				reached["parole:evicted"]++
			case live && e.Quarantined:
				reached["parole:held"]++
			}
		case kind == opRemove:
			id := pick()
			s.Remove(id)
			if _, ok := m.entries[id]; ok {
				delete(m.entries, id)
				reached["remove"]++
			}
		case kind == opLookup:
			q, k := op.vec(), []int{1, 4, 40}[op.intn(3)]
			ns, err := s.NearestInto(q, k, dst)
			if err != nil {
				t.Fatal(err)
			}
			if len(ns) > 0 && &ns[0] != &dst[:1][0] {
				t.Fatalf("op %d: NearestInto did not reuse dst", i)
			} else if len(ns) > 0 {
				reached["lookup:dst-reused"]++
			}
			if plain, err := s.Nearest(q, k); err != nil || !slices.Equal(plain, ns) {
				t.Fatalf("op %d: Nearest = %v, %v; NearestInto %v", i, plain, err, ns)
			}
			for _, n := range ns {
				e, ok := m.entries[n.ID]
				if !ok || e.Quarantined {
					t.Fatalf("op %d: lookup returned %d, model has it live %v", i, n.ID, ok)
				}
				if d, _ := feature.Euclidean(q, e.Vec); d != n.Distance {
					t.Fatalf("op %d: neighbor %d at %v, its inserted vector is at %v", i, n.ID, n.Distance, d)
				}
			}
			if want := m.nearest(q, k); cell.index == exact && !slices.Equal(ns, want) {
				t.Fatalf("op %d: exact lookup (k=%d) = %v, model's top-k %v", i, k, ns, want)
			}
			radii := []float64{0, 0.125, 0.5, math.Inf(1), math.NaN(), -1}
			for _, n := range ns {
				radii = append(radii, n.Distance, math.Nextafter(n.Distance, math.Inf(-1)), math.Nextafter(n.Distance, math.Inf(1)))
			}
			radius := radii[op.intn(len(radii))]
			checkStoreWithin(t, fmt.Sprintf("op %d", i), s, q, k, radius, ns)
			if slices.ContainsFunc(ns, func(n lsh.Neighbor) bool { return n.Distance == radius }) {
				reached["lookup:boundary"]++
			}
			if slices.ContainsFunc(carried, func(id lsh.ID) bool { e := m.entries[id]; return e != nil && e.Quarantined }) {
				reached["import:continued"]++
			}
		case kind == opExport:
			var b bytes.Buffer
			if err := s.Export(&b); err != nil {
				t.Fatal(err)
			}
			if want := m.exportBytes(t); !bytes.Equal(b.Bytes(), want) {
				t.Fatalf("op %d: Export wrote\n%s\nthe model's entries marshal to\n%s", i, b.Bytes(), want)
			}
			bank()
			s, ids = newStore(), m.reimport(now)
			if n, err := s.Import(&b); err != nil || n != len(ids) {
				t.Fatalf("op %d: Import = %d, %v; exported %d", i, n, err, len(ids))
			}
			carried = carried[:0]
			for _, e := range m.sorted(func(e *Entry) bool { return e.Quarantined }) {
				carried = append(carried, e.ID)
			}
			if len(carried) > 0 {
				reached["import:quarantined"]++
			}
			reached["export"]++
			full = true
		}

		// Every step: the table's invariants, the victim, the counters.
		s.mu.Lock()
		checkTable(t, s)
		if len(m.entries) > 0 {
			if victim := s.victimLocked(); victim != m.victim() {
				t.Fatalf("op %d: victim %d, model picks %d of %d", i, victim, m.victim(), len(m.entries))
			}
		}
		s.mu.Unlock()
		if s.Len() != len(m.entries) || s.Evictions() != m.evictions {
			t.Fatalf("op %d: len/evictions %d/%d, model %d/%d", i,
				s.Len(), s.Evictions(), len(m.entries), m.evictions)
		}
		if full { // these copy every entry, so not every step
			snap := s.Snapshot()
			sameEntries(t, fmt.Sprintf("op %d: Snapshot", i), snap, m.sorted(nil))
			for _, e := range snap {
				e.Vec[0] = -1 // copies too
			}
			sameEntries(t, fmt.Sprintf("op %d: QuarantinedEntries", i), s.QuarantinedEntries(),
				m.sorted(func(e *Entry) bool { return e.Quarantined }))
			if got, want := s.QuarantineStats(), m.quarantineStats(); got != want {
				t.Fatalf("op %d: quarantine stats %+v, model %+v", i, got, want)
			}
			want := StoreStats{Entries: len(m.entries), Evictions: m.evictions, BySource: map[string]int{}}
			for _, e := range m.entries {
				want.BySource[e.Source]++
				want.TotalHits += e.Hits
				want.SavedTotal += time.Duration(e.Hits) * e.SavedCost
			}
			if st := s.Stats(); !reflect.DeepEqual(st, want) {
				t.Fatalf("op %d: stats %+v, model %+v", i, st, want)
			}
			reached["snapshot"]++
		}
	}
	bank()
	return reached
}

// checkVerdict requires the entry id and the quarantine counts to agree
// with the model after a refute or a parole, and returns the counts.
func checkVerdict(t *testing.T, what string, s *Store, m *refStore, id lsh.ID) QuarantineStats {
	t.Helper()
	got, want := s.QuarantineStats(), m.quarantineStats()
	if got != want {
		t.Fatalf("%s: quarantine stats %+v, model %+v", what, got, want)
	}
	e, ok := s.get(id)
	if we, wok := m.get(id); ok != wok || (ok && !sameEntry(e, *we)) {
		t.Fatalf("%s: entry %+v (%v), model %+v (%v)", what, e, ok, we, wok)
	}
	return got
}

// modelOps is the length of a grid run.
const modelOps = 1500

// TestStoreMatchesModel runs every grid cell over its own seeded op
// stream; each run must reach every key of modelKeys.
func TestStoreMatchesModel(t *testing.T) {
	for c, cell := range modelGrid() {
		t.Run(cell.name(), func(t *testing.T) {
			t.Parallel()
			reached := runModel(t, cell, seededOps(int64(c+1)*101, modelOps))
			mustReach(t, reached, modelKeys)
			if testing.Verbose() {
				t.Logf("reached %v", reached)
			}
		})
	}
}

// cells is each of indexes at capacity 40 under policy.
func cells(policy Policy, indexes ...int) []modelCell {
	var out []modelCell
	for _, ix := range indexes {
		out = append(out, modelCell{ix, policy, 40})
	}
	return out
}

// modelScenario runs each cell over a 600-op stream of seed 7, in
// parallel with the other scenarios, and requires the runs' summed tally
// to reach every key of want.
func modelScenario(t *testing.T, cells []modelCell, want ...string) {
	t.Helper()
	t.Parallel()
	reached := map[string]int{}
	for _, cell := range cells {
		for k, n := range runModel(t, cell, seededOps(7, 600)) {
			reached[k] += n
		}
	}
	mustReach(t, reached, want)
}

// mustReach fails t for each key of want that reached never counted.
func mustReach(t *testing.T, reached map[string]int, want []string) {
	t.Helper()
	for _, k := range want {
		if reached[k] == 0 {
			t.Errorf("never reached %s: %v", k, reached)
		}
	}
}

// FuzzStoreModel reads a grid cell from the first byte and the op
// stream from the rest; the corpus holds one seeded stream a cell.
func FuzzStoreModel(f *testing.F) {
	grid := modelGrid()
	for c := range grid {
		b := make([]byte, 1+120*opBytes)
		rand.New(rand.NewSource(int64(c))).Read(b[1:])
		b[0] = byte(c)
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) > 0 { // at most 400 ops
			runModel(t, grid[int(b[0])%len(grid)], decodeOps(b[1:min(len(b), 1+400*opBytes)]))
		}
	})
}

// raceVec is the vector the race runner inserts under id: readers can
// check any copy they are handed without sharing state with the writers.
func raceVec(id lsh.ID) feature.Vector {
	v := make(feature.Vector, modelDim)
	for d := range v {
		v[d] = 5 + float64(id)*1e-3 + float64(d%3)
	}
	return v
}

// runRace runs four readers — get, Label, Answer, NearestInto,
// NearestWithinInto, Snapshot, Stats, Len — against two writers that
// keep the store at capacity while they insert, quarantine, parole,
// remove, export and import into the live store: every move of a vector
// between the index arena and the table. Every vector a reader is handed must be raceVec of its ID, so
// the writers assign IDs (Insert, Import) only under claim. The writers
// take the IDs up to ids between them; runRace returns what they did,
// by kind.
func runRace(t *testing.T, ids int) map[string]int {
	idx, err := lsh.NewHyperplane(modelDim, 5, 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	clk := simclock.NewVirtual(time.Unix(0, 0))
	s, err := New(Config{Capacity: 32, QuarantineThreshold: 1}, idx, clk)
	if err != nil {
		t.Fatal(err)
	}
	// importAt imports raceVec(first…first+3) into s as first…first+3,
	// confirmed and quarantined by turns, so that Import writes the audit
	// state of each.
	importAt := func(first lsh.ID) error {
		idx, err := lsh.NewExact(modelDim)
		if err != nil {
			return err
		}
		src, err := New(Config{Capacity: 4, QuarantineThreshold: 1}, idx, clk)
		if err != nil {
			return err
		}
		for i := lsh.ID(0); i < 4; i++ {
			if _, err := src.Insert(raceVec(first+i), "l", 0.9, "peer", time.Millisecond); err != nil {
				return err
			}
		}
		for i := lsh.ID(1); i <= 4; i += 2 {
			src.Confirm(i)
			src.Refute(i + 1)
		}
		var b bytes.Buffer
		if err := src.Export(&b); err != nil {
			return err
		}
		if n, err := s.Import(&b); err != nil || n != 4 {
			return fmt.Errorf("Import = %d, %v; want 4", n, err)
		}
		return nil
	}
	var (
		claim            sync.Mutex
		latest           atomic.Uint64
		stop             atomic.Bool
		readers, writers sync.WaitGroup
		did              [2]map[string]int // by writer
	)
	for g := 0; g < 4; g++ {
		readers.Add(1)
		go func(rng *rand.Rand) {
			defer readers.Done()
			var near, within []lsh.Neighbor
			for i := 0; !stop.Load(); i++ {
				top := lsh.ID(latest.Load())
				var got []Entry
				for id := top - 7; id <= top+4; id++ { // the newest IDs, and those an import may be adding
					if e, ok := s.get(id); ok {
						got = append(got, e)
						if e.ID != id {
							t.Errorf("get(%d) handed out entry %d", id, e.ID)
							return
						}
					}
				}
				id := top + 1 - lsh.ID(rng.Intn(40))
				s.Label(id)
				s.Answer(id)
				if i%16 == 0 {
					got = append(got, s.Snapshot()...)
					s.Stats()
					s.Len()
				}
				for _, e := range got {
					if !slices.Equal(e.Vec, raceVec(e.ID)) {
						t.Errorf("entry %d handed out with vector %v", e.ID, e.Vec)
						return
					}
				}
				q := raceVec(id)
				var err error
				if near, err = s.NearestInto(q, 4, near[:0]); err == nil {
					within, err = s.NearestWithinInto(q, 4, 0.5, within[:0])
				}
				if err != nil {
					t.Error(err)
					return
				}
				for _, n := range slices.Concat(near, within) {
					if d, _ := feature.Euclidean(q, raceVec(n.ID)); d != n.Distance {
						t.Errorf("neighbor %d at %v, its inserted vector is at %v", n.ID, n.Distance, d)
						return
					}
				}
				runtime.Gosched() // under -race, readers that never yield starve the writers
			}
		}(rand.New(rand.NewSource(int64(g))))
	}
	for w := range did {
		did[w] = map[string]int{}
		writers.Add(1)
		go func(did map[string]int) {
			defer writers.Done()
			for {
				claim.Lock()
				id := lsh.ID(latest.Load() + 1)
				if id > lsh.ID(ids) {
					claim.Unlock()
					return
				}
				var err error
				if id%20 == 0 {
					err = importAt(id)
					latest.Store(uint64(id + 3))
					did["import"]++
				} else {
					var got lsh.ID
					if got, err = s.Insert(raceVec(id), "l", 0.9, "dnn", time.Millisecond); err == nil && got != id {
						err = fmt.Errorf("Insert = %d; want %d", got, id)
					}
					latest.Store(uint64(id))
					did["insert"]++
				}
				claim.Unlock()
				if id%3 == 0 {
					s.Refute(id - 2)
					if e, ok := s.get(id - 2); ok && e.Quarantined {
						did["quarantine"]++
						s.Parole(id-2, id%2 == 0)
						did["parole"]++
					}
				}
				if id%5 == 0 {
					s.Remove(id - 4)
					did["remove"]++
				}
				if id%40 == 0 {
					err = errors.Join(err, s.Export(io.Discard))
					did["export"]++
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(did[w])
	}
	writers.Wait()
	stop.Store(true)
	readers.Wait()
	s.mu.Lock()
	checkTable(t, s)
	s.mu.Unlock()
	out := map[string]int{"evict": s.Evictions()}
	for _, w := range did {
		for k, n := range w {
			out[k] += n
		}
	}
	return out
}

// TestTableReadersRace is the race runner at full length. Run under
// -race.
func TestTableReadersRace(t *testing.T) {
	raceScenario(t, 3000, "insert", "import", "export", "quarantine", "parole", "remove", "evict")
}

// raceScenario runs the race runner, which must reach every key of want.
func raceScenario(t *testing.T, ids int, want ...string) {
	t.Helper()
	mustReach(t, runRace(t, ids), want)
}

// Each test below once checked one corner of the store on a workload of
// its own; it is now a run of the model or of the race runner that must
// reach that corner.

// An entry read by ID is a copy, Touch counts a hit at the current
// time, Label resolves live unquarantined entries, absent IDs nothing.
func TestInsertGetTouch(t *testing.T) { modelScenario(t, cells(LRU, exact), "get", "touch") }
func TestLabelCallback(t *testing.T) {
	modelScenario(t, cells(LFU, exact), "get", "answer:quarantined")
}
func TestGetReturnsSnapshot(t *testing.T) { modelScenario(t, cells(LRU, exact), "get", "snapshot") }

// Snapshot hands out copies and equals the model's entries however the
// table's rows moved; Stats counts them by source, hits and saved cost.
func TestSnapshot(t *testing.T) { modelScenario(t, cells(LRU, hyperplane), "snapshot") }
func TestSnapshotsIndependentOfTableOrder(t *testing.T) {
	modelScenario(t, cells(LFU, hyperplane), "snapshot", "remove", "evict")
}
func TestStats(t *testing.T) {
	modelScenario(t, cells(CostAware, hyperplane), "snapshot", "evict")
}

// A removed entry is gone, and removing it again changes nothing.
func TestRemove(t *testing.T) { modelScenario(t, cells(LRU, hidden), "remove") }

// A lookup on the exact index is the brute-force top-k by (distance,
// ID); NearestInto writes into the dst it is given and equals Nearest;
// the radius search is NearestInto cut at the radius, by the index and
// by the store for an index without one.
func TestNearestOrdersByDistance(t *testing.T) {
	modelScenario(t, cells(CostAware, exact), "lookup:boundary")
}
func TestNearestIntoMatchesNearest(t *testing.T) {
	modelScenario(t, cells(LRU, exact), "lookup:dst-reused")
}
func TestStoreNearestWithinEqualsTruncatedNearest(t *testing.T) {
	modelScenario(t, cells(LRU, hyperplane, hidden), "lookup:boundary", "evict")
}

// The table picks the model's victim, at capacity 3 too, and the store
// agrees with the model through every kind of op.
func TestCapacityInvariantProperty(t *testing.T) {
	modelScenario(t, []modelCell{{exact, CostAware, 3}}, "evict")
}
func TestVictimMatchesMapScan(t *testing.T) {
	for _, policy := range []Policy{LRU, LFU, CostAware} {
		t.Run(policy.String(), func(t *testing.T) {
			modelScenario(t, cells(policy, exact), "evict", "remove", "parole:evicted")
		})
	}
}
func TestStoreDifferentialWithSerialized(t *testing.T) {
	modelScenario(t, cells(LRU, hyperplane), "remove", "quarantine", "parole:reinstated")
}

// Audit counters, the quarantine gauge, every parole outcome and the
// narrow reads (Answer, QuarantinedEntries) follow the model.
func TestQuarantineCountersProperty(t *testing.T) {
	modelScenario(t, cells(LFU, hyperplane, exact), "quarantine", "parole:reinstated", "parole:held", "parole:evicted")
}
func TestOptionalReadsMatchFallback(t *testing.T) {
	modelScenario(t, cells(LRU, exact), "answer:quarantined", "snapshot")
}

// An import keeps every entry, quarantine included, under IDs that
// resolve to them, and a quarantined entry stays out of later lookups
// (NewSharded is New: TestNewShardedCompatIsOneStore).
func TestQuarantineSnapshotDifferential(t *testing.T) {
	modelScenario(t, cells(CostAware, hyperplane), "import:quarantined", "import:continued")
}
func TestShardedIDsRoundTrip(t *testing.T) { modelScenario(t, cells(LRU, hyperplane), "export", "get") }
func TestShardedSnapshotRoundTrip(t *testing.T) {
	modelScenario(t, cells(CostAware, hidden), "export", "import:quarantined")
}

// Readers race inserts; imports; quarantine and parole; eviction,
// removal and export.
func TestConcurrentAccess(t *testing.T)            { raceScenario(t, 300, "insert", "evict") }
func TestStoreConcurrentAccess(t *testing.T)       { raceScenario(t, 300, "insert", "remove") }
func TestReadersDuringImportRace(t *testing.T)     { raceScenario(t, 300, "import") }
func TestReadersDuringQuarantineRace(t *testing.T) { raceScenario(t, 300, "quarantine", "parole") }
func TestShardedConcurrentStress(t *testing.T) {
	raceScenario(t, 500, "evict", "remove", "export")
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
// 1 732 B. Indexes of one shape and seed share their hyperplanes while
// any of them lives, so the index is seeded with a value no other index
// in the tree uses: its hyperplanes are drawn, and counted, here
// whichever other indexes are alive.
func TestStoreBytesPerEntry(t *testing.T) {
	const n, dim, seed = 1024, 80, 1057
	vecs := randomDescriptors(n, dim, 1)
	before := settledHeap()
	idx, err := lsh.NewHyperplane(dim, 12, 4, seed)
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
