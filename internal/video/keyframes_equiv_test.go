package video

import (
	"fmt"
	"math/rand"
	"testing"

	"approxcache/internal/vision"
)

// refLibrary is the keyframe library as it was before the thumbnail
// bound: every scan runs the full pixel diff against every keyframe and
// every push clones the frame. It is the specification the production
// library is tested against, decision for decision.
type refLibrary struct {
	threshold, base float64
	cap             int
	frames          []Keyframe // newest last
}

func (r *refLibrary) setStrictness(scale float64) {
	if scale <= 0 || scale > 1 {
		return
	}
	r.threshold = r.base * scale
}

func (r *refLibrary) match(im *vision.Image) (Keyframe, bool) {
	best := -1
	bestDiff := r.threshold
	for i, kf := range r.frames {
		d := vision.MeanAbsDiff(kf.Image, im)
		if d <= bestDiff {
			best = i
			bestDiff = d
		}
	}
	if best < 0 {
		return Keyframe{}, false
	}
	return r.frames[best], true
}

func (r *refLibrary) push(im *vision.Image, label string, confidence float64) {
	if label == "" {
		return
	}
	kept := r.frames[:0]
	for _, kf := range r.frames {
		if vision.MeanAbsDiff(kf.Image, im) > r.threshold {
			kept = append(kept, kf)
		}
	}
	r.frames = append(kept, Keyframe{Image: im.Clone(), Label: label, Confidence: confidence})
	if len(r.frames) > r.cap {
		r.frames = r.frames[len(r.frames)-r.cap:]
	}
}

// lockstep drives a production library and the reference through the
// same calls and compares them after each one.
type lockstep struct {
	t   testing.TB
	lib *KeyframeLibrary
	ref *refLibrary
	// guard makes the next call hand the library the guard pass's
	// thumbnail (the engine's path) instead of the public wrappers
	// (the benchmark shadow's path).
	guard bool
	calls int
}

func newLockstep(t testing.TB, capacity int) *lockstep {
	t.Helper()
	cfg := DefaultDiffGateConfig()
	lib, err := NewKeyframeLibrary(cfg, capacity)
	if err != nil {
		t.Fatal(err)
	}
	return &lockstep{t: t, lib: lib,
		ref: &refLibrary{threshold: cfg.Threshold, base: cfg.Threshold, cap: capacity}}
}

func samePixels(a, b *vision.Image) bool {
	if a.W != b.W || a.H != b.H || len(a.Pix) != len(b.Pix) {
		return false
	}
	for i, p := range a.Pix {
		if p != b.Pix[i] {
			return false
		}
	}
	return true
}

func (ls *lockstep) match(im *vision.Image) bool {
	ls.t.Helper()
	ls.calls++
	var got Keyframe
	var ok bool
	if ls.guard {
		var th vision.Thumb
		vision.CheckFrameThumb(im, vision.FrameGuardConfig{}, &th)
		var m MatchStats
		got, m = ls.lib.MatchThumb(im, &th)
		ok = m.Found
	} else {
		got, ok = ls.lib.Match(im)
	}
	want, wantOK := ls.ref.match(im)
	if ok != wantOK {
		ls.t.Fatalf("call %d: Match ok = %v, reference %v", ls.calls, ok, wantOK)
	}
	if ok && (got.Label != want.Label || got.Confidence != want.Confidence || !samePixels(got.Image, want.Image)) {
		ls.t.Fatalf("call %d: Match returned %q/%v, reference %q/%v (or other pixels)",
			ls.calls, got.Label, got.Confidence, want.Label, want.Confidence)
	}
	ls.compare()
	return ok
}

func (ls *lockstep) push(im *vision.Image, label string, confidence float64) {
	ls.t.Helper()
	ls.calls++
	if ls.guard {
		var th vision.Thumb
		vision.CheckFrameThumb(im, vision.FrameGuardConfig{}, &th)
		ls.lib.PushThumb(im, &th, label, confidence)
	} else {
		ls.lib.Push(im, label, confidence)
	}
	ls.ref.push(im, label, confidence)
	ls.compare()
}

func (ls *lockstep) setStrictness(scale float64) {
	ls.lib.SetStrictness(scale)
	ls.ref.setStrictness(scale)
}

func (ls *lockstep) reset() {
	ls.lib.Reset()
	ls.ref.frames = nil
	ls.compare()
}

// compare checks the stored state slot by slot, plus the invariants the
// reference has no notion of: every slot's thumbnail is its own frame's,
// and stored plus recycled slots never exceed the capacity.
func (ls *lockstep) compare() {
	ls.t.Helper()
	if ls.lib.Len() != len(ls.ref.frames) {
		ls.t.Fatalf("call %d: Len = %d, reference %d", ls.calls, ls.lib.Len(), len(ls.ref.frames))
	}
	for i, want := range ls.ref.frames {
		got := ls.lib.frames[i]
		if got.Label != want.Label || got.Confidence != want.Confidence {
			ls.t.Fatalf("call %d slot %d: %q/%v, reference %q/%v",
				ls.calls, i, got.Label, got.Confidence, want.Label, want.Confidence)
		}
		if !samePixels(got.Image, want.Image) {
			ls.t.Fatalf("call %d slot %d: stored pixels differ from the reference", ls.calls, i)
		}
		var th vision.Thumb
		th.Fill(got.Image)
		if got.thumb != th {
			ls.t.Fatalf("call %d slot %d: stale thumbnail", ls.calls, i)
		}
	}
	if n := len(ls.lib.frames) + len(ls.lib.free); n > ls.lib.cap {
		ls.t.Fatalf("call %d: %d slots alive for capacity %d", ls.calls, n, ls.lib.cap)
	}
}

// Seeded random streams against the reference: class switches and
// revisits, both perturbation profiles, frame sizes divisible by the
// thumbnail grid, not divisible by it and smaller than it, strictness
// changes mid-stream, capacity 1 and 4, relabelled scenes, and both ways
// of supplying the thumbnail.
func TestKeyframeLibraryMatchesReference(t *testing.T) {
	sizes := []struct{ w, h, steps int }{{48, 48, 700}, {37, 29, 1000}, {5, 3, 2000}}
	perturbs := map[string]vision.Perturbation{
		"default": vision.DefaultPerturbation(),
		"hard":    vision.HardPerturbation(),
	}
	for _, sz := range sizes {
		for pname, perturb := range perturbs {
			for _, capacity := range []int{1, 4} {
				t.Run(fmt.Sprintf("%dx%d/%s/cap%d", sz.w, sz.h, pname, capacity), func(t *testing.T) {
					rng := rand.New(rand.NewSource(int64(sz.w*1000 + sz.h*10 + capacity)))
					const numClasses = 7
					cs, err := vision.NewClassSet(numClasses, sz.w, sz.h, rng.Int63())
					if err != nil {
						t.Fatal(err)
					}
					ls := newLockstep(t, capacity)
					class, hits, refreshes := 0, 0, 0
					for step := 0; step < sz.steps; step++ {
						switch r := rng.Float64(); {
						case r < 0.25: // scene change, often back to a recent class
							class = rng.Intn(numClasses)
						case r < 0.28:
							ls.setStrictness([]float64{1, 0.8, 0.5, 0.25}[rng.Intn(4)])
						}
						im, err := cs.Render(class, perturb, rng)
						if err != nil {
							t.Fatal(err)
						}
						ls.guard = rng.Intn(2) == 0
						matched := ls.match(im)
						// The engine pushes after every fresh recognition:
						// always after a miss, sometimes after a hit
						// (revalidation: the push displaces the keyframe it
						// just matched), now and then with a changed label.
						refresh := matched && rng.Float64() < 0.2
						if !matched || refresh {
							label := fmt.Sprintf("c%d", class)
							if rng.Float64() < 0.1 {
								label += "-relabelled"
							}
							ls.push(im, label, rng.Float64())
						}
						if matched {
							hits++
						}
						if refresh {
							refreshes++
						}
					}
					if hits == 0 || refreshes == 0 {
						t.Fatalf("%d matches, %d displacing pushes: the stream exercised too little", hits, refreshes)
					}
				})
			}
		}
	}
}

// Frames of several sizes through one library: a stored keyframe of
// another size is maximally different, and its recycled slot must be
// re-sized, not reused as is.
func TestKeyframeLibraryMixedSizesMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	var sets []*vision.ClassSet
	for _, sz := range [][2]int{{16, 16}, {32, 8}, {9, 7}, {16, 16}} {
		cs, err := vision.NewClassSet(3, sz[0], sz[1], rng.Int63())
		if err != nil {
			t.Fatal(err)
		}
		sets = append(sets, cs)
	}
	ls := newLockstep(t, 3)
	for step := 0; step < 1500; step++ {
		cs := sets[rng.Intn(len(sets))]
		class := rng.Intn(3)
		im, err := cs.Render(class, vision.DefaultPerturbation(), rng)
		if err != nil {
			t.Fatal(err)
		}
		ls.guard = rng.Intn(2) == 0
		if !ls.match(im) || rng.Intn(4) == 0 {
			ls.push(im, fmt.Sprintf("c%d", class), 1)
		}
		if rng.Intn(200) == 0 {
			ls.reset()
		}
	}
}

// fuzzFrames renders a small pool of frames the fuzz ops pick from:
// three classes at two sizes, clean and perturbed.
func fuzzFrames(t testing.TB) []*vision.Image {
	t.Helper()
	rng := rand.New(rand.NewSource(5))
	var pool []*vision.Image
	for _, sz := range [][2]int{{16, 12}, {3, 2}} {
		cs, err := vision.NewClassSet(3, sz[0], sz[1], 11)
		if err != nil {
			t.Fatal(err)
		}
		for c := 0; c < 3; c++ {
			for _, p := range []vision.Perturbation{{}, vision.DefaultPerturbation(), vision.HardPerturbation()} {
				im, err := cs.Render(c, p, rng)
				if err != nil {
					t.Fatal(err)
				}
				pool = append(pool, im)
			}
		}
	}
	return pool
}

// FuzzKeyframeLibraryEquivalence interprets its input as an op stream —
// two bytes per op: kind, argument — over a fixed pool of frames and
// checks the library against the reference after every op.
func FuzzKeyframeLibraryEquivalence(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 0, 1, 1, 1, 0, 0})
	f.Add([]byte{1, 0, 1, 3, 1, 6, 1, 9, 1, 12, 0, 1, 0, 4, 2, 3, 0, 1, 1, 2, 3, 0, 1, 0})
	f.Add([]byte{1, 9, 1, 0, 1, 10, 0, 9, 4, 0, 1, 1, 0, 0, 2, 0, 1, 2, 0, 2, 5, 1})
	pool := fuzzFrames(f)
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 400 {
			ops = ops[:400]
		}
		ls := newLockstep(t, 1)
		if len(ops) > 0 && ops[0]&0x80 != 0 {
			ls = newLockstep(t, 3)
		}
		for i := 0; i+1 < len(ops); i += 2 {
			kind, arg := ops[i]&0x7f, int(ops[i+1])
			im := pool[arg%len(pool)]
			switch kind % 6 {
			case 0:
				ls.match(im)
			case 1:
				ls.push(im, fmt.Sprintf("l%d", arg%4), float64(arg)/255)
			case 2:
				ls.setStrictness([]float64{1, 0.6, 0.3, 0.05, 0, 2}[arg%6])
			case 3:
				ls.reset()
			case 4:
				ls.guard = arg%2 == 0
			case 5:
				ls.push(im, "", 1) // ignored by both
			}
		}
	})
}

// A Keyframe returned by Match points into a library-owned buffer: it
// stays intact until the next Push, which may recycle it (that recycling
// is what keeps a full library allocation-free), and Reset lets go of
// every buffer.
func TestKeyframeLifetimeAndRecycling(t *testing.T) {
	l, err := NewKeyframeLibrary(DefaultDiffGateConfig(), 2)
	if err != nil {
		t.Fatal(err)
	}
	a, b, c := flatImage(8, 8, 0.10), flatImage(8, 8, 0.50), flatImage(8, 8, 0.90)
	l.Push(a, "a", 1)
	l.Push(b, "b", 1)
	kf, ok := l.Match(a)
	if !ok || kf.Label != "a" {
		t.Fatalf("match = %+v ok=%v", kf, ok)
	}
	if kf.Image == a {
		t.Fatal("library stored the caller's image, not a copy")
	}
	// Matches and strictness changes do not invalidate it.
	l.Match(b)
	l.Match(c)
	l.SetStrictness(0.5)
	l.SetStrictness(1)
	if !samePixels(kf.Image, a) {
		t.Fatal("keyframe changed before any Push")
	}
	// The next Push evicts "a" and recycles its buffer for "c".
	l.Push(c, "c", 1)
	got, ok := l.Match(c)
	if !ok || got.Label != "c" || !samePixels(got.Image, c) {
		t.Fatalf("match after eviction = %+v ok=%v", got, ok)
	}
	if got.Image != kf.Image {
		t.Fatal("evicted keyframe's buffer was not recycled")
	}
	// A full library pushes without allocating, whether the push evicts
	// the oldest keyframe or displaces a same-scene one.
	frames := []*vision.Image{a, b, c, flatImage(8, 8, 0.51), flatImage(8, 8, 0.11)}
	i := 0
	if allocs := testing.AllocsPerRun(50, func() {
		l.Push(frames[i%len(frames)], "x", 1)
		i++
	}); allocs != 0 {
		t.Fatalf("steady-state Push allocates %v times", allocs)
	}
	// Reset drops stored and recycled buffers alike; what the caller
	// still holds is left alone by later pushes.
	l.Push(flatImage(8, 8, 0.30), "d", 1) // leaves a displaced or evicted slot behind
	held, ok := l.Match(flatImage(8, 8, 0.30))
	if !ok {
		t.Fatal("fresh keyframe not matched")
	}
	l.Reset()
	if l.Len() != 0 || l.frames != nil || l.free != nil {
		t.Fatalf("Reset kept %d stored and %d recycled slots", len(l.frames), len(l.free))
	}
	l.Push(c, "c", 1)
	if fresh, _ := l.Match(c); fresh.Image == held.Image {
		t.Fatal("a buffer survived Reset")
	}
	if !samePixels(held.Image, flatImage(8, 8, 0.30)) {
		t.Fatal("push after Reset wrote into a dropped buffer")
	}
}

// Frames whose buffer does not match their dimensions cannot be compared
// with anything: they never match and are not stored.
func TestKeyframeLibraryIgnoresMalformedFrames(t *testing.T) {
	l, err := NewKeyframeLibrary(DefaultDiffGateConfig(), 2)
	if err != nil {
		t.Fatal(err)
	}
	l.Push(flatImage(8, 8, 0.5), "a", 1)
	for _, n := range []int{0, 63, 65} {
		bad := &vision.Image{W: 8, H: 8, Pix: make([]float64, n)}
		for i := range bad.Pix {
			bad.Pix[i] = 0.5
		}
		if _, ok := l.Match(bad); ok {
			t.Fatalf("frame with %d of 64 pixels matched", n)
		}
		l.Push(bad, "bad", 1)
		if kf, ok := l.Match(flatImage(8, 8, 0.5)); l.Len() != 1 || !ok || kf.Label != "a" {
			t.Fatalf("frame with %d of 64 pixels was stored", n)
		}
	}
}

func benchLibrary(b *testing.B) (*KeyframeLibrary, *vision.ClassSet, *rand.Rand) {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	cs, err := vision.NewClassSet(12, 48, 48, 7)
	if err != nil {
		b.Fatal(err)
	}
	l, err := NewKeyframeLibrary(DefaultDiffGateConfig(), 4)
	if err != nil {
		b.Fatal(err)
	}
	for c := 0; c < 4; c++ {
		im, err := cs.Render(c, vision.DefaultPerturbation(), rng)
		if err != nil {
			b.Fatal(err)
		}
		l.Push(im, fmt.Sprintf("c%d", c), 1)
	}
	if l.Len() != 4 {
		b.Fatalf("library holds %d scenes, want 4", l.Len())
	}
	return l, cs, rng
}

func benchFrames(b *testing.B, cs *vision.ClassSet, rng *rand.Rand, classes []int) []*vision.Image {
	b.Helper()
	frames := make([]*vision.Image, 64)
	for i := range frames {
		im, err := cs.Render(classes[i%len(classes)], vision.DefaultPerturbation(), rng)
		if err != nil {
			b.Fatal(err)
		}
		frames[i] = im
	}
	return frames
}

// BenchmarkHotPathKeyframeMatch is the video gate as the engine calls
// it: four stored scenes, the incoming frame's thumbnail already taken
// by the guard pass. Budget: 0 allocs/op.
func BenchmarkHotPathKeyframeMatch(b *testing.B) {
	for _, tc := range []struct {
		name    string
		classes []int
		hit     bool
	}{
		{"miss", []int{4, 5, 6, 7, 8, 9, 10, 11}, false}, // scenes the library has not seen
		{"hit", []int{0, 1, 2, 3}, true},                 // fresh frames of the stored scenes
	} {
		b.Run(tc.name, func(b *testing.B) {
			l, cs, rng := benchLibrary(b)
			frames := benchFrames(b, cs, rng, tc.classes)
			thumbs := make([]vision.Thumb, len(frames))
			hits := 0
			for i, im := range frames {
				thumbs[i].Fill(im)
				if _, m := l.MatchThumb(im, &thumbs[i]); m.Found {
					hits++
				}
			}
			if tc.hit != (hits*2 > len(frames)) {
				b.Fatalf("%d of %d frames matched", hits, len(frames))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				l.MatchThumb(frames[i%len(frames)], &thumbs[i%len(frames)])
			}
		})
	}
}

// BenchmarkHotPathKeyframePush pushes into a full library: mostly new
// scenes that evict the oldest keyframe, some that displace a same-scene
// one. Budget: 0 allocs/op — the evicted buffer takes the new frame.
func BenchmarkHotPathKeyframePush(b *testing.B) {
	l, cs, rng := benchLibrary(b)
	frames := benchFrames(b, cs, rng, []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 0, 5, 5})
	thumbs := make([]vision.Thumb, len(frames))
	for i, im := range frames {
		thumbs[i].Fill(im)
		l.PushThumb(im, &thumbs[i], "warm", 1)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.PushThumb(frames[i%len(frames)], &thumbs[i%len(frames)], "c", 1)
	}
}
