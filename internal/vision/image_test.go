package vision

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewImageZeroed(t *testing.T) {
	im := NewImage(4, 3)
	if im.W != 4 || im.H != 3 || len(im.Pix) != 12 {
		t.Fatalf("bad image shape: %dx%d len=%d", im.W, im.H, len(im.Pix))
	}
	for i, v := range im.Pix {
		if v != 0 {
			t.Fatalf("pixel %d = %v, want 0", i, v)
		}
	}
}

func TestAtSetBounds(t *testing.T) {
	im := NewImage(2, 2)
	im.Set(0, 0, 0.6)
	if im.At(0, 0) != 0.6 {
		t.Fatalf("At(0,0) = %v", im.At(0, 0))
	}
	// Out of bounds reads return 0; writes are ignored.
	if im.At(-1, 0) != 0 || im.At(0, 5) != 0 {
		t.Fatal("out-of-bounds read should be 0")
	}
	im.Set(-1, 0, 1)
	im.Set(5, 5, 1)
	for _, v := range im.Pix[1:] {
		if v != 0 {
			t.Fatal("out-of-bounds write mutated image")
		}
	}
}

func TestSetClamps(t *testing.T) {
	im := NewImage(1, 1)
	im.Set(0, 0, 2)
	if im.At(0, 0) != 1 {
		t.Fatalf("clamp high: %v", im.At(0, 0))
	}
	im.Set(0, 0, -3)
	if im.At(0, 0) != 0 {
		t.Fatalf("clamp low: %v", im.At(0, 0))
	}
}

// Set quantizes as a camera's ADC does: round(v·255) after clamping to
// [0, 1], halves up, NaN to black; At reads p/255 back, so
// every level round-trips.
func TestSetQuantizes(t *testing.T) {
	im := NewImage(1, 1)
	for k := 0; k <= MaxLevel; k++ {
		im.Set(0, 0, float64(k)/MaxLevel)
		if im.Pix[0] != uint8(k) || im.At(0, 0) != float64(k)/MaxLevel {
			t.Fatalf("level %d stored as %d, read as %v", k, im.Pix[0], im.At(0, 0))
		}
	}
	for _, tc := range []struct {
		v    float64
		want uint8
	}{{0.5, 128}, {0.5 / MaxLevel, 1}, {0.49 / MaxLevel, 0}, {1 - 0.49/MaxLevel, MaxLevel},
		{math.NaN(), 0}, {math.Inf(1), MaxLevel}, {math.Inf(-1), 0}, {math.Copysign(0, -1), 0}} {
		if im.Set(0, 0, tc.v); im.Pix[0] != tc.want {
			t.Fatalf("Set(%v) stored %d, want %d", tc.v, im.Pix[0], tc.want)
		}
	}
}

func TestCloneIndependent(t *testing.T) {
	im := NewImage(2, 2)
	im.Set(1, 1, 0.6)
	c := im.Clone()
	c.Set(1, 1, 0.2)
	if im.At(1, 1) != 0.6 {
		t.Fatal("clone aliases original")
	}
}

func TestMeanAbsDiff(t *testing.T) {
	a := NewImage(2, 2)
	b := NewImage(2, 2)
	if d := MeanAbsDiff(a, b); d != 0 {
		t.Fatalf("identical diff = %v", d)
	}
	for i := range b.Pix {
		b.Pix[i] = MaxLevel
	}
	if d := MeanAbsDiff(a, b); d != 1 {
		t.Fatalf("max diff = %v, want 1", d)
	}
	if d := MeanAbsDiff(a, NewImage(3, 3)); d != 1 {
		t.Fatalf("size mismatch diff = %v, want 1", d)
	}
}

func TestNewClassSetValidation(t *testing.T) {
	if _, err := NewClassSet(0, 8, 8, 1); err == nil {
		t.Fatal("zero classes should error")
	}
	if _, err := NewClassSet(2, 0, 8, 1); err == nil {
		t.Fatal("zero width should error")
	}
	cs, err := NewClassSet(3, 16, 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	if cs.NumClasses() != 3 {
		t.Fatalf("NumClasses = %d", cs.NumClasses())
	}
	if cs.w != 16 || cs.h != 16 {
		t.Fatalf("frame size = %dx%d", cs.w, cs.h)
	}
}

func TestPrototypeRangeAndDeterminism(t *testing.T) {
	cs1, err := NewClassSet(2, 16, 16, 42)
	if err != nil {
		t.Fatal(err)
	}
	cs2, err := NewClassSet(2, 16, 16, 42)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cs1.Prototype(-1); err == nil {
		t.Fatal("negative class should error")
	}
	if _, err := cs1.Prototype(2); err == nil {
		t.Fatal("out-of-range class should error")
	}
	p1, err := cs1.Prototype(1)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := cs2.Prototype(1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range p1.Pix {
		if p1.Pix[i] != p2.Pix[i] {
			t.Fatal("same seed produced different prototypes")
		}
	}
}

func TestPrototypesDistinct(t *testing.T) {
	cs, err := NewClassSet(4, 32, 32, 9)
	if err != nil {
		t.Fatal(err)
	}
	for a := 0; a < 4; a++ {
		for b := a + 1; b < 4; b++ {
			pa, _ := cs.Prototype(a)
			pb, _ := cs.Prototype(b)
			if MeanAbsDiff(pa, pb) < 0.05 {
				t.Fatalf("prototypes %d and %d nearly identical", a, b)
			}
		}
	}
}

func TestRenderZeroPerturbationEqualsPrototype(t *testing.T) {
	cs, err := NewClassSet(2, 16, 16, 5)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	im, err := cs.Render(0, Perturbation{}, rng)
	if err != nil {
		t.Fatal(err)
	}
	proto, _ := cs.Prototype(0)
	if MeanAbsDiff(im, proto) != 0 {
		t.Fatal("zero perturbation should render the prototype exactly")
	}
}

func TestRenderInvalidClass(t *testing.T) {
	cs, err := NewClassSet(2, 16, 16, 5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cs.Render(7, Perturbation{}, rand.New(rand.NewSource(1))); err == nil {
		t.Fatal("invalid class should error")
	}
}

func TestRenderStaysCloseToPrototype(t *testing.T) {
	cs, err := NewClassSet(4, 48, 48, 11)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	for c := 0; c < 4; c++ {
		proto, _ := cs.Prototype(c)
		for i := 0; i < 5; i++ {
			im, err := cs.Render(c, DefaultPerturbation(), rng)
			if err != nil {
				t.Fatal(err)
			}
			own := MeanAbsDiff(im, proto)
			for other := 0; other < 4; other++ {
				if other == c {
					continue
				}
				po, _ := cs.Prototype(other)
				if MeanAbsDiff(im, po) <= own {
					t.Fatalf("render of class %d closer to prototype %d", c, other)
				}
			}
		}
	}
}

// Property: every rendered frame is well formed and its intensities stay
// in [0,1] under arbitrary perturbation profiles.
func TestRenderPixelRangeProperty(t *testing.T) {
	cs, err := NewClassSet(2, 24, 24, 3)
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed int64, noise, bright float64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := Perturbation{
			Noise:         math.Abs(noise) / 4,
			MaxBrightness: math.Abs(bright) / 4,
			MaxShift:      rng.Intn(6),
			OcclusionProb: rng.Float64(),
		}
		im, err := cs.Render(rng.Intn(2), p, rng)
		if err != nil {
			return false
		}
		for y := 0; y < im.H; y++ {
			for x := 0; x < im.W; x++ {
				if v := im.At(x, y); v < 0 || v > 1 {
					return false
				}
			}
		}
		return im.WellFormed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestHardPerturbationMoreDistortion(t *testing.T) {
	cs, err := NewClassSet(1, 48, 48, 13)
	if err != nil {
		t.Fatal(err)
	}
	proto, _ := cs.Prototype(0)
	rngA := rand.New(rand.NewSource(4))
	rngB := rand.New(rand.NewSource(4))
	var easy, hard float64
	const n = 10
	for i := 0; i < n; i++ {
		e, err := cs.Render(0, DefaultPerturbation(), rngA)
		if err != nil {
			t.Fatal(err)
		}
		h, err := cs.Render(0, HardPerturbation(), rngB)
		if err != nil {
			t.Fatal(err)
		}
		easy += MeanAbsDiff(e, proto)
		hard += MeanAbsDiff(h, proto)
	}
	if hard <= easy {
		t.Fatalf("hard perturbation (%v) not harder than default (%v)", hard/n, easy/n)
	}
}
