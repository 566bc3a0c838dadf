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
	rand.New(rand.NewSource(3)).Read(im.Pix)
	return im
}

// BenchmarkHotPathFusedExtract is the full default descriptor computed
// from the pixels alone into a reused buffer: thumbnail pass, grid half
// off the thumbnail, histogram pass. Budget: 0 allocs/op.
func BenchmarkHotPathFusedExtract(b *testing.B) {
	e := DefaultExtractor()
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

// BenchmarkHotPathGrid is the per-cell grid pass, the descriptor's
// grid half when no thumbnail covers the frame. Budget: 0 allocs/op.
func BenchmarkHotPathGrid(b *testing.B) {
	im := benchImage(b, 48, 48)
	out := make(Vector, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gridCells(out, im, 8, 8)
	}
}

// BenchmarkHotPathHistogram is the histogram pass, the descriptor's
// second half. Budget: 0 allocs/op.
func BenchmarkHotPathHistogram(b *testing.B) {
	im := benchImage(b, 48, 48)
	out := make(Vector, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		histogram(out, im.Pix)
	}
}
