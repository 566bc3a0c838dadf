package p2p

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"approxcache/internal/feature"
)

// Delta digests: instead of refetching a peer's full coverage digest on
// every refresh, a requester sends the epoch it last applied and the
// service answers with only the centroids added and removed since. The
// service assigns each centroid value a stable ID, bumps its epoch
// whenever the centroid set changes, and keeps a short ring of past
// epochs' ID sets; a requester at any remembered epoch gets an exact
// delta, anyone else (first contact, evicted history, service restart)
// gets a full snapshot. Applying a delta therefore always reproduces
// exactly the set a full refetch would return.

// digestHistoryLen bounds remembered past epochs. A steady-state
// refresher is at most one epoch behind; the ring absorbs bursts.
const digestHistoryLen = 8

// digestGen distinguishes service incarnations: epochs are
// generation<<32 | counter, so a restarted service (fresh counter)
// can never echo an epoch number a client learned from its previous
// life and silently serve a wrong "unchanged" delta.
var digestGen atomic.Uint64

type digestHist struct {
	epoch uint64
	ids   map[uint64]struct{}
}

// digestEpochs is the service-side delta state.
type digestEpochs struct {
	mu      sync.Mutex
	epoch   uint64
	nextID  uint64
	current map[uint64]feature.Vector
	keys    map[string]uint64
	history []digestHist
}

func newDigestEpochs() *digestEpochs {
	return &digestEpochs{
		epoch:   digestGen.Add(1) << 32,
		current: make(map[uint64]feature.Vector),
		keys:    make(map[string]uint64),
	}
}

// vecKey is an exact-value identity for a centroid; a centroid keeps
// its ID exactly as long as its value survives rebuilds, and any value
// change is a remove+add pair.
func vecKey(v feature.Vector) string {
	b := make([]byte, 0, len(v)*8)
	for _, x := range v {
		b = binary.BigEndian.AppendUint64(b, math.Float64bits(x))
	}
	return string(b)
}

// serve ingests the freshly built centroid set, advances the epoch if
// it changed, and answers the delta for a requester last synced at
// since.
func (d *digestEpochs) serve(centroids []feature.Vector, since uint64) DigestDeltaResp {
	d.mu.Lock()
	defer d.mu.Unlock()

	next := make(map[uint64]feature.Vector, len(centroids))
	nextKeys := make(map[string]uint64, len(centroids))
	for _, v := range centroids {
		k := vecKey(v)
		if _, dup := nextKeys[k]; dup {
			continue
		}
		id, ok := d.keys[k]
		if !ok {
			d.nextID++
			id = d.nextID
		}
		nextKeys[k] = id
		next[id] = v
	}
	if !sameIDSet(next, d.current) {
		ids := make(map[uint64]struct{}, len(d.current))
		for id := range d.current {
			ids[id] = struct{}{}
		}
		d.history = append(d.history, digestHist{epoch: d.epoch, ids: ids})
		if len(d.history) > digestHistoryLen {
			d.history = d.history[1:]
		}
		d.epoch++
	}
	d.current, d.keys = next, nextKeys

	if since == d.epoch {
		return DigestDeltaResp{Epoch: d.epoch}
	}
	for _, h := range d.history {
		if h.epoch != since {
			continue
		}
		resp := DigestDeltaResp{Epoch: d.epoch}
		for id := range h.ids {
			if _, ok := d.current[id]; !ok {
				resp.Removed = append(resp.Removed, id)
			}
		}
		for id, v := range d.current {
			if _, ok := h.ids[id]; !ok {
				resp.Added = append(resp.Added, DigestCentroid{ID: id, Vec: v})
			}
		}
		sortDelta(&resp)
		return resp
	}
	resp := DigestDeltaResp{Epoch: d.epoch, Full: true}
	for id, v := range d.current {
		resp.Added = append(resp.Added, DigestCentroid{ID: id, Vec: v})
	}
	sortDelta(&resp)
	return resp
}

func sameIDSet(a, b map[uint64]feature.Vector) bool {
	if len(a) != len(b) {
		return false
	}
	for id := range a {
		if _, ok := b[id]; !ok {
			return false
		}
	}
	return true
}

// sortDelta orders delta lists by ID so responses are deterministic.
func sortDelta(r *DigestDeltaResp) {
	sort.Slice(r.Removed, func(i, j int) bool { return r.Removed[i] < r.Removed[j] })
	sort.Slice(r.Added, func(i, j int) bool { return r.Added[i].ID < r.Added[j].ID })
}

// peerDigestState is the client-side mirror of one peer's digest.
type peerDigestState struct {
	epoch     uint64
	centroids map[uint64]feature.Vector
}

// apply folds a delta (or full snapshot) into the mirror and returns
// the flattened digest, with centroids ordered by ID for determinism.
func (st *peerDigestState) apply(resp DigestDeltaResp) (Digest, error) {
	if resp.Full || st.centroids == nil {
		if !resp.Full && (len(resp.Added) > 0 || len(resp.Removed) > 0) {
			return Digest{}, fmt.Errorf("p2p: delta response without prior digest state")
		}
		st.centroids = make(map[uint64]feature.Vector, len(resp.Added))
		for _, c := range resp.Added {
			st.centroids[c.ID] = c.Vec
		}
	} else {
		for _, id := range resp.Removed {
			delete(st.centroids, id)
		}
		for _, c := range resp.Added {
			st.centroids[c.ID] = c.Vec
		}
	}
	st.epoch = resp.Epoch
	ids := make([]uint64, 0, len(st.centroids))
	for id := range st.centroids {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	d := Digest{Centroids: make([]feature.Vector, 0, len(ids))}
	for _, id := range ids {
		d.Centroids = append(d.Centroids, st.centroids[id])
	}
	return d, nil
}
