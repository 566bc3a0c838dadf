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
	if _, err := (GridHistogram{Cols: 0, Rows: 8, Bins: 16}).Extract(im); err == nil {
		t.Fatal("zero cols should error")
	}
	if _, err := (GridHistogram{Cols: 8, Rows: -1, Bins: 16}).Extract(im); err == nil {
		t.Fatal("negative rows should error")
	}
	d := GridHistogram{Cols: 8, Rows: 8, Bins: 16}
	if _, err := d.Extract(im); err != nil {
		t.Fatal(err)
	}
	if d.Dim() != 80 {
		t.Fatalf("Dim = %d, want 80", d.Dim())
	}
}

func TestGridExtractorTooSmallImage(t *testing.T) {
	d := GridHistogram{Cols: 8, Rows: 8, Bins: 16}
	if _, err := d.Extract(vision.NewImage(4, 4)); err == nil {
		t.Fatal("image smaller than grid should error")
	}
}

func TestGridExtractorUniformImage(t *testing.T) {
	im := vision.NewImage(32, 32)
	for i := range im.Pix {
		im.Pix[i] = 51
	}
	v := make(Vector, 16)
	gridCells(v, im, 4, 4)
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
	v := make(Vector, 9)
	gridCells(v, im, 3, 3)
	for i, x := range v {
		if x != 1 {
			t.Fatalf("cell %d = %v, want 1", i, x)
		}
	}
}

func TestHistogramExtractor(t *testing.T) {
	im := vision.NewImage(2, 2)
	if _, err := (GridHistogram{Cols: 1, Rows: 1}).Extract(im); err == nil {
		t.Fatal("zero bins should error")
	}
	v := make(Vector, 4)
	histogram(v, []uint8{26, 77, 153, 255}) // bins 0,1,2,3 (white joins the last)
	want := Vector{0.25, 0.25, 0.25, 0.25}
	for i := range want {
		if !almostEqual(v[i], want[i], 1e-12) {
			t.Fatalf("hist = %v, want %v", v, want)
		}
	}
}

func TestHistogramExtractorEmptyImage(t *testing.T) {
	d := GridHistogram{Cols: 1, Rows: 1, Bins: 4}
	if _, err := d.Extract(&vision.Image{}); err == nil {
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
	v := make(Vector, 16)
	histogram(v, im.Pix)
	var sum float64
	for _, x := range v {
		sum += x
	}
	if !almostEqual(sum, 1, 1e-9) {
		t.Fatalf("histogram sum = %v, want 1", sum)
	}
}

func TestCombinedExtractor(t *testing.T) {
	d := GridHistogram{Cols: 4, Rows: 4, Bins: 8}
	if d.Dim() != 24 {
		t.Fatalf("Dim = %d, want 24", d.Dim())
	}
	cs := testClassSet(t)
	rng := rand.New(rand.NewSource(3))
	im, err := cs.Render(1, vision.DefaultPerturbation(), rng)
	if err != nil {
		t.Fatal(err)
	}
	v, err := d.Extract(im)
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

// TestCombinedExtractorPropagatesPartError: a frame the grid refuses is
// refused by the whole descriptor, with or without a thumbnail.
func TestCombinedExtractorPropagatesPartError(t *testing.T) {
	d := GridHistogram{Cols: 8, Rows: 8, Bins: 16}
	im := vision.NewImage(2, 2)
	if _, err := d.Extract(im); err == nil {
		t.Fatal("grid error should propagate")
	}
	if _, err := d.ExtractThumbInto(im, thumbOf(im), nil); err == nil {
		t.Fatal("grid error should propagate past a thumbnail")
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
