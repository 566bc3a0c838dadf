package feature

// Hot-path extraction benchmarks, all reporting allocs/op; `make
// bench-hotpath` pins their allocation budgets via cmd/benchgate. The
// frame shape matches the standard pipeline: 48×48 grayscale, 8×8 grid
// + 16-bin histogram (80 dims).

import (
	"math/rand"
	"testing"

	"approxcache/internal/vision"
)

func benchImage(b *testing.B, w, h int) *vision.Image {
	b.Helper()
	im := vision.NewImage(w, h)
	r := rand.New(rand.NewSource(3))
	for i := range im.Pix {
		im.Pix[i] = r.Float64()
	}
	return im
}

// BenchmarkHotPathFusedExtract is the full default descriptor computed
// from the pixels alone into a reused buffer: thumbnail pass, grid half
// off the thumbnail, histogram pass. Budget: 0 allocs/op.
func BenchmarkHotPathFusedExtract(b *testing.B) {
	e := DefaultExtractor().(IntoExtractor)
	im := benchImage(b, 48, 48)
	dst := make(Vector, 0, e.Dim())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, err := e.ExtractInto(im, dst)
		if err != nil {
			b.Fatal(err)
		}
		dst = v[:0]
	}
}

// BenchmarkHotPathExtractFromThumb is the engine's call: the same
// descriptor for a caller that already holds the frame's thumbnail, so
// only the histogram reads the pixels. Budget: 0 allocs/op.
func BenchmarkHotPathExtractFromThumb(b *testing.B) {
	e := DefaultExtractor()
	im := benchImage(b, 48, 48)
	var th vision.Thumb
	th.Fill(im)
	dst := make(Vector, 0, e.Dim())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, err := ExtractThumbInto(e, im, &th, dst)
		if err != nil {
			b.Fatal(err)
		}
		dst = v[:0]
	}
}

// BenchmarkHotPathGrid is the standalone per-cell grid pass. Budget: 0
// allocs/op.
func BenchmarkHotPathGrid(b *testing.B) {
	g := GridExtractor{Cols: 8, Rows: 8}
	im := benchImage(b, 48, 48)
	dst := make(Vector, 0, g.Dim())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, err := g.ExtractInto(im, dst)
		if err != nil {
			b.Fatal(err)
		}
		dst = v[:0]
	}
}

// BenchmarkHotPathHistogram is the standalone histogram pass. Budget: 0
// allocs/op.
func BenchmarkHotPathHistogram(b *testing.B) {
	h := HistogramExtractor{Bins: 16}
	im := benchImage(b, 48, 48)
	dst := make(Vector, 0, h.Dim())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, err := h.ExtractInto(im, dst)
		if err != nil {
			b.Fatal(err)
		}
		dst = v[:0]
	}
}
