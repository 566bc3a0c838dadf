package feature

// Differential and buffer-contract tests for the ExtractInto hot path:
// the descriptor against computing its grid and histogram separately,
// and the dst-reuse semantics every Extractor must honor.

import (
	"fmt"
	"math/rand"
	"testing"

	"approxcache/internal/vision"
)

func noisyImage(w, h int, seed int64) *vision.Image {
	im := vision.NewImage(w, h)
	rand.New(rand.NewSource(seed)).Read(im.Pix)
	return im
}

// refHistogram is the histogram by definition: float64 counters, one
// pass in pixel order, level k in bin floor(k·bins/255) and white in the
// last. The level-counting pass must reproduce its bits.
func refHistogram(im *vision.Image, bins int) Vector {
	out := make(Vector, bins)
	for _, p := range im.Pix {
		out[min(int(p)*bins/vision.MaxLevel, bins-1)]++
	}
	for i := range out {
		out[i] /= float64(len(im.Pix))
	}
	return out
}

// refCombined is the descriptor computed part by part from the
// references: per-cell grid, float-counted histogram, unit norm.
func refCombined(im *vision.Image, cols, rows, bins int) Vector {
	gv := make(Vector, cols*rows)
	gridCells(gv, im, cols, rows)
	want := append(gv, refHistogram(im, bins)...)
	want.Normalize()
	return want
}

// TestFusedMatchesSeparateParts pins the descriptor — thumbnail-backed
// for the 8×8 grid, summed cell by cell for any other — to the grid and
// the float-counted histogram run separately. Both accumulation orders
// are preserved, so the match is exact.
func TestFusedMatchesSeparateParts(t *testing.T) {
	grids := [][2]int{{8, 8}, {16, 16}, {7, 5}}
	for _, c := range []struct{ w, h int }{{48, 48}, {53, 47}, {17, 31}} {
		t.Run(fmt.Sprintf("%dx%d", c.w, c.h), func(t *testing.T) {
			im := noisyImage(c.w, c.h, int64(c.w+c.h))
			for _, g := range grids {
				d := GridHistogram{Cols: g[0], Rows: g[1], Bins: 16}
				got, err := d.ExtractInto(im, nil)
				if err != nil {
					t.Fatal(err)
				}
				assertSameVector(t, got, refCombined(im, g[0], g[1], 16))
			}
		})
	}
}

// TestCombinedGenericPathMatchesFused runs the 8×8 descriptor down both
// of its grid paths — cells summed from the pixels (no thumbnail) and
// cells read off a covering thumbnail — and checks they agree bit for
// bit.
func TestCombinedGenericPathMatchesFused(t *testing.T) {
	im := noisyImage(48, 48, 21)
	d := GridHistogram{Cols: 8, Rows: 8, Bins: 16}
	fused, err := d.ExtractThumbInto(im, thumbOf(im), nil)
	if err != nil {
		t.Fatal(err)
	}
	generic, err := d.ExtractThumbInto(im, &vision.Thumb{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	assertSameVector(t, generic, fused)
}

// wrapExtractor hides GridHistogram's thumbnail method, as an extractor
// without one (a tracing wrapper, say) would.
type wrapExtractor struct{ Extractor }

// TestExtractIntoBufferContract checks aliasing and reuse for both
// descriptors the programs build: a big-enough dst is reused in place, a
// too-small dst is replaced, and repeated calls converge to zero fresh
// storage.
func TestExtractIntoBufferContract(t *testing.T) {
	im := noisyImage(48, 48, 33)
	for _, e := range []GridHistogram{{Cols: 8, Rows: 8, Bins: 16}, {Cols: 16, Rows: 16, Bins: 32}} {
		t.Run(e.Name(), func(t *testing.T) {
			want, err := e.Extract(im)
			if err != nil {
				t.Fatal(err)
			}
			// Too-small dst: result must still be correct.
			small := make(Vector, 0, 1)
			got, err := e.ExtractInto(im, small)
			if err != nil {
				t.Fatal(err)
			}
			assertSameVector(t, got, want)
			// Ample dst: result must alias it.
			big := make(Vector, 0, e.Dim()+10)
			got, err = e.ExtractInto(im, big)
			if err != nil {
				t.Fatal(err)
			}
			if &got[0] != &big[:1][0] {
				t.Fatal("ample dst was not reused")
			}
			assertSameVector(t, got, want)
			// Reuse the returned buffer: stable across calls.
			again, err := e.ExtractInto(im, got[:0])
			if err != nil {
				t.Fatal(err)
			}
			assertSameVector(t, again, want)
		})
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
