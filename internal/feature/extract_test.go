package feature

import (
	"math/rand"
	"testing"

	"approxcache/internal/vision"
)

func testClassSet(t *testing.T) *vision.ClassSet {
	t.Helper()
	cs, err := vision.NewClassSet(4, 64, 64, 7)
	if err != nil {
		t.Fatal(err)
	}
	return cs
}

func TestGridExtractorValidation(t *testing.T) {
	im := vision.NewImage(16, 16)
	if _, err := (GridExtractor{Cols: 0, Rows: 8}).Extract(im); err == nil {
		t.Fatal("zero cols should error")
	}
	if _, err := (GridExtractor{Cols: 8, Rows: -1}).Extract(im); err == nil {
		t.Fatal("negative rows should error")
	}
	g := GridExtractor{Cols: 8, Rows: 8}
	if _, err := g.Extract(im); err != nil {
		t.Fatal(err)
	}
	if g.Dim() != 64 {
		t.Fatalf("Dim = %d, want 64", g.Dim())
	}
	if g.Name() != "grid8x8" {
		t.Fatalf("Name = %q", g.Name())
	}
}

func TestGridExtractorTooSmallImage(t *testing.T) {
	g := GridExtractor{Cols: 8, Rows: 8}
	if _, err := g.Extract(vision.NewImage(4, 4)); err == nil {
		t.Fatal("image smaller than grid should error")
	}
}

func TestGridExtractorUniformImage(t *testing.T) {
	im := vision.NewImage(32, 32)
	for i := range im.Pix {
		im.Pix[i] = 51
	}
	g := GridExtractor{Cols: 4, Rows: 4}
	v, err := g.Extract(im)
	if err != nil {
		t.Fatal(err)
	}
	if len(v) != 16 {
		t.Fatalf("len = %d, want 16", len(v))
	}
	for i, x := range v {
		if x != 0.2 {
			t.Fatalf("cell %d = %v, want 0.2", i, x)
		}
	}
}

func TestGridExtractorNonDivisibleSize(t *testing.T) {
	// 10x10 image with 3x3 grid: cells have uneven sizes but must
	// cover the image exactly once.
	im := vision.NewImage(10, 10)
	for i := range im.Pix {
		im.Pix[i] = vision.MaxLevel
	}
	g := GridExtractor{Cols: 3, Rows: 3}
	v, err := g.Extract(im)
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range v {
		if x != 1 {
			t.Fatalf("cell %d = %v, want 1", i, x)
		}
	}
}

func TestHistogramExtractor(t *testing.T) {
	im := vision.NewImage(2, 2)
	if _, err := (HistogramExtractor{}).Extract(im); err == nil {
		t.Fatal("zero bins should error")
	}
	h := HistogramExtractor{Bins: 4}
	im.Pix = []uint8{26, 77, 153, 255} // bins 0,1,2,3 (white joins the last)
	v, err := h.Extract(im)
	if err != nil {
		t.Fatal(err)
	}
	want := Vector{0.25, 0.25, 0.25, 0.25}
	for i := range want {
		if !almostEqual(v[i], want[i], 1e-12) {
			t.Fatalf("hist = %v, want %v", v, want)
		}
	}
}

func TestHistogramExtractorEmptyImage(t *testing.T) {
	h := HistogramExtractor{Bins: 4}
	if _, err := h.Extract(&vision.Image{}); err == nil {
		t.Fatal("empty image should error")
	}
}

func TestHistogramSumsToOne(t *testing.T) {
	cs := testClassSet(t)
	rng := rand.New(rand.NewSource(2))
	im, err := cs.Render(0, vision.DefaultPerturbation(), rng)
	if err != nil {
		t.Fatal(err)
	}
	h := HistogramExtractor{Bins: 16}
	v, err := h.Extract(im)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, x := range v {
		sum += x
	}
	if !almostEqual(sum, 1, 1e-9) {
		t.Fatalf("histogram sum = %v, want 1", sum)
	}
}

func TestCombinedExtractor(t *testing.T) {
	if _, err := NewCombinedExtractor(true); err == nil {
		t.Fatal("no parts should error")
	}
	c, err := NewCombinedExtractor(true, GridExtractor{Cols: 4, Rows: 4}, HistogramExtractor{Bins: 8})
	if err != nil {
		t.Fatal(err)
	}
	if c.Dim() != 24 {
		t.Fatalf("Dim = %d, want 24", c.Dim())
	}
	cs := testClassSet(t)
	rng := rand.New(rand.NewSource(3))
	im, err := cs.Render(1, vision.DefaultPerturbation(), rng)
	if err != nil {
		t.Fatal(err)
	}
	v, err := c.Extract(im)
	if err != nil {
		t.Fatal(err)
	}
	if len(v) != 24 {
		t.Fatalf("len = %d, want 24", len(v))
	}
	if !almostEqual(v.Norm(), 1, 1e-9) {
		t.Fatalf("combined vector norm = %v, want 1", v.Norm())
	}
}

func TestCombinedExtractorPropagatesPartError(t *testing.T) {
	c, err := NewCombinedExtractor(false, GridExtractor{Cols: 8, Rows: 8})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Extract(vision.NewImage(2, 2)); err == nil {
		t.Fatal("part error should propagate")
	}
}

// Feature space sanity: same-class renders must be closer than
// different-class renders on average. This is the property the whole
// approximate cache depends on.
func TestFeatureSpaceSeparatesClasses(t *testing.T) {
	cs := testClassSet(t)
	ex := DefaultExtractor()
	rng := rand.New(rand.NewSource(4))
	const perClass = 8
	vecs := make(map[int][]Vector)
	for c := 0; c < cs.NumClasses(); c++ {
		for i := 0; i < perClass; i++ {
			im, err := cs.Render(c, vision.DefaultPerturbation(), rng)
			if err != nil {
				t.Fatal(err)
			}
			v, err := ex.Extract(im)
			if err != nil {
				t.Fatal(err)
			}
			vecs[c] = append(vecs[c], v)
		}
	}
	var intra, inter float64
	var intraN, interN int
	for c1, vs1 := range vecs {
		for c2, vs2 := range vecs {
			for i := range vs1 {
				for j := range vs2 {
					if c1 == c2 && i >= j {
						continue
					}
					d := MustEuclidean(vs1[i], vs2[j])
					if c1 == c2 {
						intra += d
						intraN++
					} else {
						inter += d
						interN++
					}
				}
			}
		}
	}
	intra /= float64(intraN)
	inter /= float64(interN)
	if intra*2 > inter {
		t.Fatalf("weak class separation: intra=%v inter=%v", intra, inter)
	}
}

func TestDefaultExtractorDeterministic(t *testing.T) {
	cs := testClassSet(t)
	ex := DefaultExtractor()
	im, err := cs.Prototype(2)
	if err != nil {
		t.Fatal(err)
	}
	v1, err := ex.Extract(im)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := ex.Extract(im)
	if err != nil {
		t.Fatal(err)
	}
	for i := range v1 {
		if v1[i] != v2[i] {
			t.Fatalf("extraction not deterministic at dim %d", i)
		}
	}
}
