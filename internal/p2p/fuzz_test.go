package p2p

import (
	"errors"
	"testing"
)

// FuzzDecode exercises the wire decoder with arbitrary bytes: it must
// never panic, anything it accepts must re-encode and re-decode to the
// same kind (round-trip stability), a retired kind (7 to 11) is always
// ErrUnknownKind, and anything that does not open with the wire marker
// must be rejected as ErrWireVersion by Decode and by a service alike,
// unbooked.
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
	// The retired kinds 7 to 11 in marker framing.
	for _, frame := range retiredKindFrames {
		f.Add(frame)
	}
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
		if len(data) > 1 && data[1] >= 7 && data[1] <= 11 && !errors.Is(err, ErrUnknownKind) {
			t.Fatalf("retired kind %d: Decode = %v, %v", data[1], msg, err)
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
