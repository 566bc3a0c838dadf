package dnn

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"approxcache/internal/vision"
)

// ErrInjectedFault is the error returned by a FaultyClassifier during a
// scripted error window. Wrapped errors unwrap to it so tests and the
// watchdog's retry policy can identify injected (transient) faults.
var ErrInjectedFault = errors.New("dnn: injected fault")

// Recognizer is the classifier surface a FaultyClassifier wraps. It is
// structurally identical to the engine's Classifier interface, so a
// FaultyClassifier slots anywhere a classifier does.
type Recognizer interface {
	Infer(im *vision.Image) (Inference, error)
	Profile() Profile
}

// FaultKind selects a scripted classifier misbehaviour.
type FaultKind int

// Supported classifier fault kinds.
const (
	// FaultError makes Infer return ErrInjectedFault (a transient
	// failure: OOM kill, delegate crash, thermal throttle abort).
	FaultError FaultKind = iota + 1
	// FaultHang makes Infer block on the wall clock for the window's
	// Extra duration (or until Release is called) before returning
	// ErrInjectedFault — a wedged accelerator delegate. Use small Extra
	// values in tests; the watchdog's per-call deadline is what bounds
	// the stall in the pipeline.
	FaultHang
	// FaultDrift lets Infer succeed but rewrites the returned label
	// through the window's Relabel function — model drift: the world
	// (or a model update) changed what the classifier says about the
	// same scenes, so everything cached before the window is now wrong.
	// Unlike the transient kinds, drift is silent: no error, no
	// latency bump, just answers that quietly contradict the cache.
	FaultDrift
)

// String returns the fault kind name.
func (k FaultKind) String() string {
	switch k {
	case FaultError:
		return "error"
	case FaultHang:
		return "hang"
	case FaultDrift:
		return "drift"
	default:
		return fmt.Sprintf("FaultKind(%d)", int(k))
	}
}

// FaultWindow scripts one fault over a half-open range of Infer calls
// [From, To). Call numbering starts at 0 and counts every attempt,
// including watchdog retries, so a retry during an outage window fails
// too — exactly how a broken model behaves.
type FaultWindow struct {
	From, To int
	Kind     FaultKind
	// Extra is the hang duration (FaultHang). Ignored for FaultError
	// and FaultDrift.
	Extra time.Duration
	// Relabel maps the wrapped model's label to the drifted one
	// (FaultDrift only). It must be pure and deterministic so replays
	// reproduce. See ShiftRelabel for the standard rotation.
	Relabel func(string) string
}

// FaultPlan is a deterministic script of classifier faults.
type FaultPlan []FaultWindow

// Validate reports whether the plan is usable.
func (p FaultPlan) Validate() error {
	for i, w := range p {
		if w.From < 0 || w.To < w.From {
			return fmt.Errorf("dnn: fault window %d has bad range [%d,%d)", i, w.From, w.To)
		}
		switch w.Kind {
		case FaultError, FaultHang, FaultDrift:
		default:
			return fmt.Errorf("dnn: fault window %d has unknown kind %d", i, int(w.Kind))
		}
		if w.Kind != FaultError && w.Extra < 0 {
			return fmt.Errorf("dnn: fault window %d has negative extra %v", i, w.Extra)
		}
		if w.Kind == FaultDrift && w.Relabel == nil {
			return fmt.Errorf("dnn: fault window %d is drift without a Relabel", i)
		}
	}
	return nil
}

// FaultyClassifier wraps a Recognizer with a deterministic fault plan
// plus a manual down switch, for chaos experiments and watchdog tests.
// It is safe for concurrent use.
type FaultyClassifier struct {
	inner Recognizer

	mu      sync.Mutex
	plan    FaultPlan
	calls   int
	down    bool
	release chan struct{}
}

// NewFaultyClassifier wraps inner with plan.
func NewFaultyClassifier(inner Recognizer, plan FaultPlan) (*FaultyClassifier, error) {
	if inner == nil {
		return nil, fmt.Errorf("dnn: nil inner classifier")
	}
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	return &FaultyClassifier{inner: inner, plan: plan, release: make(chan struct{})}, nil
}

// Profile returns the wrapped model's profile.
func (f *FaultyClassifier) Profile() Profile { return f.inner.Profile() }

// Calls returns how many Infer attempts have been made so far.
func (f *FaultyClassifier) Calls() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.calls
}

// SetDown switches the manual outage on or off. While down, every call
// fails with ErrInjectedFault regardless of the plan — the hook chaos
// harnesses use to crash and heal the model on a frame timeline.
func (f *FaultyClassifier) SetDown(down bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.down = down
}

// SetFaultPlan replaces the fault plan at runtime. Call numbering is
// NOT reset: drift harnesses install a window at [Calls(), ∞) to flip
// the model mid-run at an exact point in its real call sequence
// (retries and shadow audits included).
func (f *FaultyClassifier) SetFaultPlan(plan FaultPlan) error {
	if err := plan.Validate(); err != nil {
		return err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.plan = plan
	return nil
}

// Release unblocks any Infer call currently hung by a FaultHang window.
func (f *FaultyClassifier) Release() {
	f.mu.Lock()
	defer f.mu.Unlock()
	close(f.release)
	f.release = make(chan struct{})
}

// Infer consults the manual switch and the plan for this call number,
// then either fails, hangs, or delegates to the wrapped model.
func (f *FaultyClassifier) Infer(im *vision.Image) (Inference, error) {
	f.mu.Lock()
	call := f.calls
	f.calls++
	down := f.down
	release := f.release
	var active *FaultWindow
	for i := range f.plan {
		if call >= f.plan[i].From && call < f.plan[i].To {
			active = &f.plan[i]
			break
		}
	}
	f.mu.Unlock()

	if down {
		return Inference{}, fmt.Errorf("%w: call %d (down)", ErrInjectedFault, call)
	}
	if active == nil {
		return f.inner.Infer(im)
	}
	switch active.Kind {
	case FaultError:
		return Inference{}, fmt.Errorf("%w: call %d", ErrInjectedFault, call)
	case FaultHang:
		if active.Extra > 0 {
			select {
			case <-release:
			case <-time.After(active.Extra):
			}
		} else {
			<-release
		}
		return Inference{}, fmt.Errorf("%w: call %d (hang)", ErrInjectedFault, call)
	default: // FaultDrift
		inf, err := f.inner.Infer(im)
		if err != nil {
			return inf, err
		}
		inf.Label = active.Relabel(inf.Label)
		return inf, nil
	}
}

// ShiftRelabel returns the standard drift map: a rotation of the
// class-label space by shift positions mod numClasses. Labels outside
// the class-N form pass through unchanged. Rotation makes EVERY
// pre-drift cache entry wrong at once — the worst case for a system
// whose whole business is reusing old answers.
func ShiftRelabel(shift, numClasses int) func(string) string {
	return func(label string) string {
		var c int
		if _, err := fmt.Sscanf(label, "class-%d", &c); err != nil || c < 0 || c >= numClasses {
			return label
		}
		return LabelOf((c + shift) % numClasses)
	}
}
