package feature

// The thumbnail path of the default descriptor: vision.Thumb's block
// sums are the 8×8 grid's cell sums bit for bit, so ExtractThumbInto
// reproduces ExtractInto's bits from a thumbnail the frame guard already
// took, and everything that cannot use a thumbnail falls back.

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"approxcache/internal/vision"
)

func thumbOf(im *vision.Image) *vision.Thumb {
	var th vision.Thumb
	th.Fill(im)
	return &th
}

// TestThumbBlockSumsAreGridCellSums: same partition (floor boundaries),
// same per-cell order (one chain, row-major), so not a bit differs —
// including sizes the grid does not divide.
func TestThumbBlockSumsAreGridCellSums(t *testing.T) {
	g := GridExtractor{Cols: 8, Rows: 8}
	for _, sz := range [][2]int{{48, 48}, {37, 29}, {9, 13}, {8, 8}} {
		w, h := sz[0], sz[1]
		im := noisyImage(w, h, int64(w*131+h))
		// Out-of-range and negative pixels: the sums are not clamped.
		im.Pix[0], im.Pix[len(im.Pix)-1] = -3.5, 1e6
		sums := thumbOf(im).BlockSums()
		means, err := g.ExtractInto(im, nil)
		if err != nil {
			t.Fatal(err)
		}
		for gy := 0; gy < 8; gy++ {
			y0, y1 := gy*h/8, (gy+1)*h/8
			for gx := 0; gx < 8; gx++ {
				x0, x1 := gx*w/8, (gx+1)*w/8
				var sum float64
				for y := y0; y < y1; y++ {
					for x := x0; x < x1; x++ {
						sum += im.Pix[y*w+x]
					}
				}
				i := gy*8 + gx
				if sums[i] != sum {
					t.Fatalf("%dx%d block %d: thumbnail sum %v, cell sum %v", w, h, i, sums[i], sum)
				}
				if mean := sum / float64((y1-y0)*(x1-x0)); means[i] != mean {
					t.Fatalf("%dx%d cell %d: grid %v, want %v", w, h, i, means[i], mean)
				}
			}
		}
	}
}

// thumbFrames yields frames that stress the equivalence: noise, renders,
// uniform frames, pixels outside [0, 1] (the histogram clamps them, the
// grid does not), non-finite pixels, and runs of equal pixels (the
// histogram's split counters).
func thumbFrames(t testing.TB, w, h int, seed int64) []*vision.Image {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	frames := []*vision.Image{noisyImage(w, h, seed), vision.NewImage(w, h)}
	cs, err := vision.NewClassSet(3, w, h, seed)
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < 3; c++ {
		im, err := cs.Render(c, vision.HardPerturbation(), rng)
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, im)
	}
	wild := noisyImage(w, h, seed+1)
	for i := range wild.Pix {
		wild.Pix[i] = (wild.Pix[i] - 0.5) * 4
	}
	frames = append(frames, wild)
	for _, v := range []float64{1, -0.25, 1e300, math.NaN(), math.Inf(1), math.Inf(-1)} {
		im := noisyImage(w, h, seed+2)
		im.Pix[rng.Intn(len(im.Pix))] = v
		frames = append(frames, im)
	}
	steps := vision.NewImage(w, h)
	for i := range steps.Pix {
		steps.Pix[i] = float64(i/5%4) / 4
	}
	return append(frames, steps)
}

// sameBits compares vectors bit for bit, so NaN dimensions (a non-finite
// pixel poisons its cell, and the norm) count as equal to themselves.
func sameBits(a, b Vector) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func TestExtractThumbIntoMatchesExtractInto(t *testing.T) {
	g := GridExtractor{Cols: 8, Rows: 8}
	for _, sz := range [][2]int{{48, 48}, {37, 29}, {9, 13}, {8, 8}, {64, 40}} {
		for _, normalize := range []bool{true, false} {
			comb, err := NewCombinedExtractor(normalize, g, HistogramExtractor{Bins: 16})
			if err != nil {
				t.Fatal(err)
			}
			for i, im := range thumbFrames(t, sz[0], sz[1], int64(sz[0]+sz[1])) {
				name := fmt.Sprintf("%dx%d frame %d normalize=%v", sz[0], sz[1], i, normalize)
				want := refCombined(t, im, g, 16, normalize)
				plain, err := comb.ExtractInto(im, nil)
				if err != nil {
					t.Fatal(err)
				}
				if !sameBits(plain, want) {
					t.Fatalf("%s: ExtractInto differs from the part-by-part reference", name)
				}
				dst := make(Vector, 0, comb.Dim())
				got, err := ExtractThumbInto(comb, im, thumbOf(im), dst)
				if err != nil {
					t.Fatal(err)
				}
				if !sameBits(got, want) {
					t.Fatalf("%s: thumbnail path differs from ExtractInto", name)
				}
				if &got[0] != &dst[:1][0] {
					t.Fatalf("%s: thumbnail path did not reuse dst", name)
				}
			}
		}
	}
}

// The histogram's integer split counters against float counting, at
// widths on both sides of intCountBins and an odd pixel count.
func TestHistogramIntegerCountsMatchFloat(t *testing.T) {
	for _, bins := range []int{1, 16, 255, intCountBins, intCountBins + 1, 1000} {
		for _, sz := range [][2]int{{48, 48}, {7, 9}, {1, 1}} {
			for i, im := range thumbFrames(t, sz[0], sz[1], int64(bins)) {
				got, err := HistogramExtractor{Bins: bins}.ExtractInto(im, nil)
				if err != nil {
					t.Fatal(err)
				}
				if !sameBits(got, refHistogram(im, bins)) {
					t.Fatalf("bins %d, %dx%d frame %d: integer counts differ", bins, sz[0], sz[1], i)
				}
			}
		}
	}
}

// Whatever cannot use the thumbnail must come out as ExtractInto would
// have produced it: a thumbnail that is empty or of another frame size,
// a grid that is not the thumbnail's, a histogram too wide for the
// {grid, hist} shape, an extractor without the optional method.
func TestExtractThumbIntoFallsBack(t *testing.T) {
	im := noisyImage(48, 48, 7)
	own := thumbOf(im)
	g8, h16 := GridExtractor{Cols: 8, Rows: 8}, HistogramExtractor{Bins: 16}
	mustCombine := func(parts ...Extractor) *CombinedExtractor {
		c, err := NewCombinedExtractor(true, parts...)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	def := mustCombine(g8, h16)
	cases := []struct {
		name string
		e    Extractor
		th   *vision.Thumb
	}{
		{"empty thumbnail", def, &vision.Thumb{}},
		{"thumbnail of a 32x32 frame", def, thumbOf(noisyImage(32, 32, 8))},
		{"thumbnail of a 24x96 frame", def, thumbOf(noisyImage(24, 96, 9))},
		{"grid 4x4", mustCombine(GridExtractor{Cols: 4, Rows: 4}, h16), own},
		{"grid 16x16", mustCombine(GridExtractor{Cols: 16, Rows: 16}, h16), own},
		{"wide histogram", mustCombine(g8, HistogramExtractor{Bins: intCountBins + 1}), own},
		{"grid alone", mustCombine(g8), own},
		{"three parts", mustCombine(g8, h16, h16), own},
		{"foreign part", mustCombine(wrapExtractor{g8}, h16), own},
		{"foreign extractor", wrapExtractor{def}, own},
		{"grid extractor", g8, own},
	}
	for _, c := range cases {
		want, err := ExtractInto(c.e, im, nil)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		got, err := ExtractThumbInto(c.e, im, c.th, nil)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		assertSameVector(t, got, want)
	}
	if !def.thumbShaped() || mustCombine(GridExtractor{Cols: 4, Rows: 4}, h16).thumbShaped() {
		t.Fatal("thumbnail shape misdetected")
	}
	// Frames the grid refuses are refused on either path, thumbnail or not.
	for _, bad := range []*vision.Image{
		vision.NewImage(5, 3),
		{W: 48, H: 48, Pix: make([]float64, 48*48-1)},
		{},
	} {
		if _, err := def.ExtractInto(bad, nil); err == nil {
			t.Fatalf("ExtractInto accepted a %dx%d frame with %d pixels", bad.W, bad.H, len(bad.Pix))
		}
		if _, err := ExtractThumbInto(def, bad, thumbOf(bad), nil); err == nil {
			t.Fatalf("thumbnail path accepted a %dx%d frame with %d pixels", bad.W, bad.H, len(bad.Pix))
		}
		if _, err := ExtractThumbInto(def, bad, own, nil); err == nil {
			t.Fatalf("a foreign thumbnail got a %dx%d frame accepted", bad.W, bad.H)
		}
	}
}

// FuzzExtractThumbInto decodes a frame (dimensions, then pixels as raw
// float64 bits, so NaN, ±Inf and denormals all occur) and checks the
// thumbnail path against the part-by-part reference.
func FuzzExtractThumbInto(f *testing.F) {
	f.Add(uint8(8), uint8(8), []byte{})
	f.Add(uint8(9), uint8(13), []byte{0, 0, 0, 0, 0, 0, 0xf0, 0x7f, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(uint8(37), uint8(29), []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xef, 0x3f})
	g := GridExtractor{Cols: 8, Rows: 8}
	f.Fuzz(func(t *testing.T, w8, h8 uint8, raw []byte) {
		w, h := 8+int(w8)%57, 8+int(h8)%57
		im := noisyImage(w, h, int64(w)<<8|int64(h))
		for i := 0; i+8 <= len(raw) && i/8 < len(im.Pix); i += 8 {
			im.Pix[i/8] = math.Float64frombits(binary.LittleEndian.Uint64(raw[i:]))
		}
		comb, err := NewCombinedExtractor(len(raw)%2 == 0, g, HistogramExtractor{Bins: 16})
		if err != nil {
			t.Fatal(err)
		}
		got, err := comb.ExtractThumbInto(im, thumbOf(im), nil)
		if err != nil {
			t.Fatal(err)
		}
		if want := refCombined(t, im, g, 16, len(raw)%2 == 0); !sameBits(got, want) {
			t.Fatalf("%dx%d: thumbnail path differs from the reference", w, h)
		}
	})
}
