package p2p

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"approxcache/internal/feature"
)

// FuzzDecode exercises the wire decoder with arbitrary bytes: it must
// never panic, anything it accepts must re-encode and re-decode to the
// same kind (round-trip stability), and anything that does not open with
// the wire marker must be rejected as ErrWireVersion by Decode and by a
// service alike, unbooked.
func FuzzDecode(f *testing.F) {
	// Seed corpus: every message kind plus hostile shapes.
	for _, m := range allKinds() {
		b, err := Encode(m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	// The deleted float64 dialect's frames stay as rejection seeds.
	for _, ff := range foreignFrames {
		f.Add(ff.frame)
	}
	// The retired full-digest pair (kinds 7 and 8) in marker framing.
	f.Add([]byte{wireMarker, 0x07})
	f.Add([]byte{wireMarker, 0x08, 0x02, 0x02, 0x3b, 0x81, 0x02, 0x04, 0x3f, 0x00, 0x00, 0x00, 0x7f, 0x81,
		0x02, 0x3b, 0x81, 0x02, 0x04, 0x3f, 0x00, 0x00, 0x00, 0x81, 0x7f})
	f.Add([]byte{})
	f.Add([]byte{wireMarker})
	f.Add([]byte{wireMarker, byte(KindQuery), 4, 0x80, 0x80, 0x80, 0x01})

	svc := newService(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		msg, err := Decode(data)
		if len(data) > 0 && data[0] != wireMarker {
			if !errors.Is(err, ErrWireVersion) {
				t.Fatalf("unmarked frame: Decode = %v, %v", msg, err)
			}
			if _, herr := svc.HandleRaw("fuzz", data); !errors.Is(herr, ErrWireVersion) ||
				Classify(herr) != ErrClassBadResponse {
				t.Fatalf("unmarked frame: HandleRaw = %v", herr)
			}
			return
		}
		if err != nil {
			return // rejection is fine; panics are not
		}
		re, err := Encode(msg)
		if err != nil {
			t.Fatalf("decoded message failed to re-encode: %v", err)
		}
		msg2, err := Decode(re)
		if err != nil {
			t.Fatalf("re-encoded message failed to decode: %v", err)
		}
		if msg.MsgKind() != msg2.MsgKind() {
			t.Fatalf("kind changed across round trip: %v vs %v",
				msg.MsgKind(), msg2.MsgKind())
		}
	})
}

// FuzzDeltaApply drives random centroid churn through the service-side
// delta state and asserts the client-side apply path always reproduces
// exactly what a from-scratch full refetch would return.
func FuzzDeltaApply(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(0))
	f.Add(int64(42), uint8(10), uint8(200))
	f.Add(int64(-7), uint8(digestHistoryLen+4), uint8(90))
	f.Fuzz(func(t *testing.T, seed int64, rounds uint8, lagPct uint8) {
		rng := rand.New(rand.NewSource(seed))
		d := newDigestEpochs()
		var st peerDigestState
		var since uint64
		pool := make([]feature.Vector, 10)
		for i := range pool {
			pool[i] = feature.Vector{float64(i), rng.Float64()}
		}
		for round := 0; round < int(rounds%32); round++ {
			var set []feature.Vector
			for _, v := range pool {
				if rng.Float64() < 0.5 {
					set = append(set, v)
				}
			}
			// A lagging client sometimes presents a stale or bogus
			// epoch; the service must fall back to a full snapshot and
			// apply must still converge.
			q := since
			if rng.Float64() < float64(lagPct)/255 {
				q = rng.Uint64()
			}
			resp := d.serve(set, q)
			got, err := st.apply(resp)
			if err != nil {
				// Only legal when a delta met empty client state; a
				// full snapshot must always apply.
				if resp.Full {
					t.Fatalf("round %d: full snapshot failed to apply: %v", round, err)
				}
				st, since = peerDigestState{}, 0
				continue
			}
			since = resp.Epoch
			var ref peerDigestState
			want, err := ref.apply(d.serve(set, 0))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("round %d: delta %v != full %v", round, got.Centroids, want.Centroids)
			}
		}
	})
}
