package feature

// Differential and buffer-contract tests for the ExtractInto hot path:
// the combined {grid, hist} shape against running the parts separately,
// and the dst-reuse semantics every IntoExtractor must honor.

import (
	"fmt"
	"math/rand"
	"testing"

	"approxcache/internal/vision"
)

func noisyImage(w, h int, seed int64) *vision.Image {
	im := vision.NewImage(w, h)
	rng := rand.New(rand.NewSource(seed))
	for i := range im.Pix {
		im.Pix[i] = rng.Float64()
	}
	return im
}

// refHistogram is the histogram as first written: float64 counters, one
// pass in pixel order. The integer-counting pass must reproduce its bits.
func refHistogram(im *vision.Image, bins int) Vector {
	out := make(Vector, bins)
	for _, p := range im.Pix {
		out[histBin(p, float64(bins), bins)]++
	}
	for i := range out {
		out[i] /= float64(len(im.Pix))
	}
	return out
}

// refCombined is the {grid, hist} descriptor computed part by part from
// the references: standalone per-cell grid, float-counted histogram.
func refCombined(t testing.TB, im *vision.Image, g GridExtractor, bins int, normalize bool) Vector {
	t.Helper()
	gv, err := g.ExtractInto(im, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := append(gv, refHistogram(im, bins)...)
	if normalize {
		want.Normalize()
	}
	return want
}

// TestFusedMatchesSeparateParts pins the combined {grid, hist} shape —
// thumbnail-backed for the 8×8 grid, summed cell by cell for any other —
// to the standalone grid and the float-counted histogram run separately.
// Both accumulation orders are preserved, so the match is exact.
func TestFusedMatchesSeparateParts(t *testing.T) {
	grids := []GridExtractor{{Cols: 8, Rows: 8}, {Cols: 16, Rows: 16}, {Cols: 7, Rows: 5}}
	for _, c := range []struct{ w, h int }{{48, 48}, {53, 47}, {17, 31}} {
		t.Run(fmt.Sprintf("%dx%d", c.w, c.h), func(t *testing.T) {
			im := noisyImage(c.w, c.h, int64(c.w+c.h))
			for _, g := range grids {
				for _, normalize := range []bool{false, true} {
					comb, err := NewCombinedExtractor(normalize, g, HistogramExtractor{Bins: 16})
					if err != nil {
						t.Fatal(err)
					}
					if comb.grid == nil {
						t.Fatalf("%s+hist shape not recognised", g.Name())
					}
					got, err := comb.ExtractInto(im, nil)
					if err != nil {
						t.Fatal(err)
					}
					assertSameVector(t, got, refCombined(t, im, g, 16, normalize))
				}
			}
		})
	}
}

// TestCombinedGenericPathMatchesFused runs the same shape through the
// generic per-part path (by defeating fusion with a wrapper) and checks
// it agrees with the thumbnail-backed result bit for bit.
func TestCombinedGenericPathMatchesFused(t *testing.T) {
	im := noisyImage(48, 48, 21)
	g := GridExtractor{Cols: 8, Rows: 8}
	h := HistogramExtractor{Bins: 16}
	fused, err := NewCombinedExtractor(true, g, h)
	if err != nil {
		t.Fatal(err)
	}
	generic, err := NewCombinedExtractor(true, wrapExtractor{g}, h)
	if err != nil {
		t.Fatal(err)
	}
	if generic.grid != nil {
		t.Fatal("wrapper failed to defeat fusion")
	}
	a, err := fused.Extract(im)
	if err != nil {
		t.Fatal(err)
	}
	b, err := generic.Extract(im)
	if err != nil {
		t.Fatal(err)
	}
	assertSameVector(t, b, a)
}

// wrapExtractor hides the concrete type so NewCombinedExtractor cannot
// fuse, and hides ExtractInto so the package-level fallback (Extract
// plus copy) is exercised through the combined generic path.
type wrapExtractor struct{ inner Extractor }

func (w wrapExtractor) Extract(im *vision.Image) (Vector, error) { return w.inner.Extract(im) }
func (w wrapExtractor) Dim() int                                 { return w.inner.Dim() }
func (w wrapExtractor) Name() string                             { return w.inner.Name() }

// TestExtractIntoBufferContract checks aliasing and reuse for every
// IntoExtractor: a big-enough dst is reused in place, a too-small dst is
// replaced, and repeated calls converge to zero fresh storage.
func TestExtractIntoBufferContract(t *testing.T) {
	im := noisyImage(48, 48, 33)
	extractors := []Extractor{
		GridExtractor{Cols: 8, Rows: 8},
		HistogramExtractor{Bins: 16},
		DefaultExtractor(),
	}
	for _, e := range extractors {
		t.Run(e.Name(), func(t *testing.T) {
			want, err := e.Extract(im)
			if err != nil {
				t.Fatal(err)
			}
			// Too-small dst: result must still be correct.
			small := make(Vector, 0, 1)
			got, err := ExtractInto(e, im, small)
			if err != nil {
				t.Fatal(err)
			}
			assertSameVector(t, got, want)
			// Ample dst: result must alias it.
			big := make(Vector, 0, e.Dim()+10)
			got, err = ExtractInto(e, im, big)
			if err != nil {
				t.Fatal(err)
			}
			if &got[0] != &big[:1][0] {
				t.Fatal("ample dst was not reused")
			}
			assertSameVector(t, got, want)
			// Reuse the returned buffer: stable across calls.
			again, err := ExtractInto(e, im, got[:0])
			if err != nil {
				t.Fatal(err)
			}
			assertSameVector(t, again, want)
		})
	}
}

// TestExtractIntoFallback covers the package-level fallback for
// extractors without an ExtractInto method.
func TestExtractIntoFallback(t *testing.T) {
	im := noisyImage(32, 32, 44)
	e := wrapExtractor{GridExtractor{Cols: 4, Rows: 4}}
	want, err := e.Extract(im)
	if err != nil {
		t.Fatal(err)
	}
	dst := make(Vector, 0, 16)
	got, err := ExtractInto(e, im, dst)
	if err != nil {
		t.Fatal(err)
	}
	if &got[0] != &dst[:1][0] {
		t.Fatal("fallback did not copy into dst")
	}
	assertSameVector(t, got, want)
	if _, err := ExtractInto(e, vision.NewImage(2, 2), dst); err == nil {
		t.Fatal("fallback swallowed the extractor error")
	}
}

func assertSameVector(t *testing.T, got, want Vector) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("len %d, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("dim %d: got %v, want %v", i, got[i], want[i])
		}
	}
}
