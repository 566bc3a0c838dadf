package p2p

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"approxcache/internal/cachestore"
	"approxcache/internal/feature"
	"approxcache/internal/lsh"
	"approxcache/internal/simclock"
)

// memTransport reaches in-process services directly: no radio, no
// goroutine, a fixed simulated round trip. What a benchmark over it
// measures is the client's and the services' own work.
type memTransport map[string]*Service

func (m memTransport) Call(peer string, req []byte) ([]byte, time.Duration, error) {
	resp, err := m[peer].HandleRaw("self", req)
	return resp, 5 * time.Millisecond, err
}

func (m memTransport) Send(peer string, payload []byte) (time.Duration, error) {
	_, err := m[peer].HandleRaw("self", payload)
	return 5 * time.Millisecond, err
}

// benchUnit returns n random unit vectors of dimension dim.
func benchUnit(rng *rand.Rand, n, dim int) []feature.Vector {
	out := make([]feature.Vector, n)
	for i := range out {
		v := make(feature.Vector, dim)
		var norm float64
		for j := range v {
			v[j] = rng.NormFloat64()
			norm += v[j] * v[j]
		}
		for j := range v {
			v[j] /= math.Sqrt(norm)
		}
		out[i] = v
	}
	return out
}

// benchMesh is one client over three peers behind a memTransport, each
// peer holding 64 of the 80-d descriptors, plus 64 query vectors: every
// other one a descriptor one peer holds, the rest far from all of them.
func benchMesh(b *testing.B) (*Client, []feature.Vector) {
	b.Helper()
	const dim, perPeer = 80, 64
	rng := rand.New(rand.NewSource(1))
	tr := memTransport{}
	var names []string
	var held []feature.Vector
	for _, name := range []string{"peer-a", "peer-b", "peer-c"} {
		idx, err := lsh.NewExact(dim)
		if err != nil {
			b.Fatal(err)
		}
		st, err := cachestore.New(cachestore.Config{Capacity: perPeer}, idx, simclock.NewVirtual(time.Unix(0, 0)))
		if err != nil {
			b.Fatal(err)
		}
		for i, v := range benchUnit(rng, perPeer, dim) {
			if _, err := st.Insert(v, diffLabel(i%8), 0.9, "dnn", time.Millisecond); err != nil {
				b.Fatal(err)
			}
			held = append(held, v)
		}
		svc, err := NewService(DefaultServiceConfig(name), st)
		if err != nil {
			b.Fatal(err)
		}
		tr[name] = svc
		names = append(names, name)
	}
	cl, err := NewClient(DefaultClientConfig(), tr)
	if err != nil {
		b.Fatal(err)
	}
	cl.SetPeers(names)
	far := benchUnit(rng, 32, dim)
	queries := make([]feature.Vector, 0, 64)
	for i := 0; i < 32; i++ {
		queries = append(queries, held[i*len(held)/32], far[i])
	}
	return cl, queries
}

// BenchmarkHotPathQueryFrame is the peer stage of one missed frame: one
// query fanned out to three healthy peers, their answers decoded and
// booked, the best kept. The services' handling is included — the
// transport calls them in process.
func BenchmarkHotPathQueryFrame(b *testing.B) {
	cl, queries := benchMesh(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cl.QueryFrame(queries[i%len(queries)], 0); err != nil {
			b.Fatal(err)
		}
	}
}
