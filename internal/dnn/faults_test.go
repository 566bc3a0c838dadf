package dnn

import (
	"errors"
	"testing"
	"time"

	"approxcache/internal/vision"
)

// stubModel is a minimal Recognizer whose answers are fixed.
type stubModel struct {
	inf Inference
}

func (s *stubModel) Infer(im *vision.Image) (Inference, error) { return s.inf, nil }
func (s *stubModel) Profile() Profile                          { return Profile{Name: "stub"} }

func newStub() *stubModel {
	return &stubModel{inf: Inference{Label: "cat", Confidence: 0.9, Latency: 10 * time.Millisecond}}
}

func TestFaultPlanValidate(t *testing.T) {
	good := FaultPlan{{From: 0, To: 3, Kind: FaultError}, {From: 5, To: 5, Kind: FaultHang, Extra: time.Second}}
	if err := good.Validate(); err != nil {
		t.Fatalf("good plan rejected: %v", err)
	}
	bad := []FaultPlan{
		{{From: -1, To: 2, Kind: FaultError}},
		{{From: 4, To: 2, Kind: FaultError}},
		{{From: 0, To: 1, Kind: FaultKind(9)}},
		{{From: 0, To: 1, Kind: FaultHang, Extra: -time.Second}},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Fatalf("bad plan %d accepted", i)
		}
	}
	if _, err := NewFaultyClassifier(nil, nil); err == nil {
		t.Fatal("nil inner accepted")
	}
	if _, err := NewFaultyClassifier(newStub(), bad[0]); err == nil {
		t.Fatal("bad plan accepted by constructor")
	}
}

func TestFaultErrorWindow(t *testing.T) {
	fc, err := NewFaultyClassifier(newStub(), FaultPlan{{From: 2, To: 4, Kind: FaultError}})
	if err != nil {
		t.Fatal(err)
	}
	im := vision.NewImage(4, 4)
	for call := 0; call < 6; call++ {
		inf, err := fc.Infer(im)
		inWindow := call >= 2 && call < 4
		if inWindow {
			if !errors.Is(err, ErrInjectedFault) {
				t.Fatalf("call %d: want injected fault, got %v", call, err)
			}
		} else if err != nil || inf.Label != "cat" {
			t.Fatalf("call %d: want success, got %v %v", call, inf, err)
		}
	}
	if fc.Calls() != 6 {
		t.Fatalf("Calls = %d", fc.Calls())
	}
}

func TestFaultyClassifierSetDown(t *testing.T) {
	fc, err := NewFaultyClassifier(newStub(), nil)
	if err != nil {
		t.Fatal(err)
	}
	im := vision.NewImage(4, 4)
	if _, err := fc.Infer(im); err != nil {
		t.Fatalf("healthy call failed: %v", err)
	}
	fc.SetDown(true)
	for i := 0; i < 3; i++ {
		if _, err := fc.Infer(im); !errors.Is(err, ErrInjectedFault) {
			t.Fatalf("down call %d: want injected fault, got %v", i, err)
		}
	}
	fc.SetDown(false)
	if inf, err := fc.Infer(im); err != nil || inf.Label != "cat" {
		t.Fatalf("healed call: got %v %v", inf, err)
	}
	if fc.Profile().Name != "stub" {
		t.Fatal("profile not delegated")
	}
}

func TestFaultHangBlocksThenErrors(t *testing.T) {
	fc, err := NewFaultyClassifier(newStub(), FaultPlan{{From: 0, To: 1, Kind: FaultHang, Extra: 20 * time.Millisecond}})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, ferr := fc.Infer(vision.NewImage(4, 4))
	if !errors.Is(ferr, ErrInjectedFault) {
		t.Fatalf("want injected fault, got %v", ferr)
	}
	if el := time.Since(start); el < 15*time.Millisecond {
		t.Fatalf("hang returned after only %v", el)
	}
}

func TestFaultHangRelease(t *testing.T) {
	// Extra 0 hangs until Release; the call must return promptly after.
	fc, err := NewFaultyClassifier(newStub(), FaultPlan{{From: 0, To: 1, Kind: FaultHang}})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, ferr := fc.Infer(vision.NewImage(4, 4))
		done <- ferr
	}()
	select {
	case <-done:
		t.Fatal("hang returned before Release")
	case <-time.After(20 * time.Millisecond):
	}
	fc.Release()
	select {
	case ferr := <-done:
		if !errors.Is(ferr, ErrInjectedFault) {
			t.Fatalf("want injected fault, got %v", ferr)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Release did not unblock the hung call")
	}
}

func TestFaultKindStrings(t *testing.T) {
	for k, want := range map[FaultKind]string{
		FaultError: "error", FaultHang: "hang", FaultDrift: "drift",
	} {
		if got := k.String(); got != want {
			t.Fatalf("String(%d) = %q", int(k), got)
		}
	}
	if got := FaultKind(7).String(); got != "FaultKind(7)" {
		t.Fatalf("unknown kind string %q", got)
	}
}
