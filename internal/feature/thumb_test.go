package feature

// The thumbnail path of the default descriptor: vision.Thumb's block
// sums are the 8×8 grid's cell sums bit for bit, so ExtractThumbInto
// reproduces ExtractInto's bits from a thumbnail the frame guard already
// took, and everything that cannot use a thumbnail falls back.

import (
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
// integer sums, so not a bit differs — including sizes the grid does not
// divide.
func TestThumbBlockSumsAreGridCellSums(t *testing.T) {
	for _, sz := range [][2]int{{48, 48}, {37, 29}, {9, 13}, {8, 8}} {
		w, h := sz[0], sz[1]
		im := noisyImage(w, h, int64(w*131+h))
		im.Pix[0], im.Pix[len(im.Pix)-1] = 0, vision.MaxLevel
		sums := thumbOf(im).BlockSums()
		means := make(Vector, 64)
		gridCells(means, im, 8, 8)
		for gy := 0; gy < 8; gy++ {
			y0, y1 := gy*h/8, (gy+1)*h/8
			for gx := 0; gx < 8; gx++ {
				x0, x1 := gx*w/8, (gx+1)*w/8
				var sum int
				for y := y0; y < y1; y++ {
					for x := x0; x < x1; x++ {
						sum += int(im.Pix[y*w+x])
					}
				}
				i := gy*8 + gx
				if sums[i] != sum {
					t.Fatalf("%dx%d block %d: thumbnail sum %v, cell sum %v", w, h, i, sums[i], sum)
				}
				if mean := float64(sum) / float64(vision.MaxLevel*(y1-y0)*(x1-x0)); means[i] != mean {
					t.Fatalf("%dx%d cell %d: grid %v, want %v", w, h, i, means[i], mean)
				}
			}
		}
	}
}

// thumbFrames yields frames that stress the equivalence: noise, renders,
// black and white frames, a single full-scale pixel, and runs of equal
// pixels (the histogram's split counters).
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
	white := vision.NewImage(w, h)
	for i := range white.Pix {
		white.Pix[i] = vision.MaxLevel
	}
	frames = append(frames, white)
	for _, v := range []uint8{0, 1, 254, vision.MaxLevel} {
		im := noisyImage(w, h, seed+2)
		im.Pix[rng.Intn(len(im.Pix))] = v
		frames = append(frames, im)
	}
	steps := vision.NewImage(w, h)
	for i := range steps.Pix {
		steps.Pix[i] = uint8(i / 5 % 4 * 64)
	}
	return append(frames, steps)
}

// sameBits compares vectors bit for bit.
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
	d := GridHistogram{Cols: 8, Rows: 8, Bins: 16}
	for _, sz := range [][2]int{{48, 48}, {37, 29}, {9, 13}, {8, 8}, {64, 40}} {
		for i, im := range thumbFrames(t, sz[0], sz[1], int64(sz[0]+sz[1])) {
			name := fmt.Sprintf("%dx%d frame %d", sz[0], sz[1], i)
			want := refCombined(im, 8, 8, 16)
			plain, err := d.ExtractInto(im, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !sameBits(plain, want) {
				t.Fatalf("%s: ExtractInto differs from the part-by-part reference", name)
			}
			dst := make(Vector, 0, d.Dim())
			got, err := ExtractThumbInto(d, im, thumbOf(im), dst)
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

// The histogram's level counts, folded into bins, against float counting
// pixel by pixel, at widths below, at and above the 256 levels and an
// odd pixel count.
func TestHistogramIntegerCountsMatchFloat(t *testing.T) {
	for _, bins := range []int{1, 10, 16, 32, 255, 256, 257, 1000} {
		for _, sz := range [][2]int{{48, 48}, {7, 9}, {1, 1}} {
			for i, im := range thumbFrames(t, sz[0], sz[1], int64(bins)) {
				got := make(Vector, bins)
				histogram(got, im.Pix)
				if !sameBits(got, refHistogram(im, bins)) {
					t.Fatalf("bins %d, %dx%d frame %d: integer counts differ", bins, sz[0], sz[1], i)
				}
			}
		}
	}
}

// Whatever cannot use the thumbnail must come out as ExtractInto would
// have produced it: a thumbnail that is empty or of another frame size,
// a grid that is not the thumbnail's, a histogram wider than the AVX2
// kernel takes, an extractor without the optional method.
func TestExtractThumbIntoFallsBack(t *testing.T) {
	im := noisyImage(48, 48, 7)
	own := thumbOf(im)
	def := GridHistogram{Cols: 8, Rows: 8, Bins: 16}
	cases := []struct {
		name string
		e    Extractor
		th   *vision.Thumb
	}{
		{"empty thumbnail", def, &vision.Thumb{}},
		{"thumbnail of a 32x32 frame", def, thumbOf(noisyImage(32, 32, 8))},
		{"thumbnail of a 24x96 frame", def, thumbOf(noisyImage(24, 96, 9))},
		{"grid 4x4", GridHistogram{Cols: 4, Rows: 4, Bins: 16}, own},
		{"grid 16x16", GridHistogram{Cols: 16, Rows: 16, Bins: 16}, own},
		{"wide histogram", GridHistogram{Cols: 8, Rows: 8, Bins: 257}, own},
		{"foreign extractor", wrapExtractor{def}, own},
	}
	for _, c := range cases {
		want, err := c.e.ExtractInto(im, nil)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		got, err := ExtractThumbInto(c.e, im, c.th, nil)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		assertSameVector(t, got, want)
	}
	if !def.thumbShaped() || (GridHistogram{Cols: 4, Rows: 4, Bins: 16}).thumbShaped() {
		t.Fatal("thumbnail shape misdetected")
	}
	// Frames the grid refuses are refused on either path, thumbnail or not.
	for _, bad := range []*vision.Image{
		vision.NewImage(5, 3),
		{W: 48, H: 48, Pix: make([]uint8, 48*48-1)},
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

// FuzzExtractThumbInto decodes a frame (dimensions, then pixel bytes)
// and checks the thumbnail path against the part-by-part reference.
func FuzzExtractThumbInto(f *testing.F) {
	f.Add(uint8(8), uint8(8), []byte{})
	f.Add(uint8(9), uint8(13), []byte{0, 0, 0, 0, 0, 0, 0xf0, 0x7f, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(uint8(37), uint8(29), []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xef, 0x3f})
	d := GridHistogram{Cols: 8, Rows: 8, Bins: 16}
	f.Fuzz(func(t *testing.T, w8, h8 uint8, raw []byte) {
		w, h := 8+int(w8)%57, 8+int(h8)%57
		im := noisyImage(w, h, int64(w)<<8|int64(h))
		copy(im.Pix, raw)
		got, err := d.ExtractThumbInto(im, thumbOf(im), nil)
		if err != nil {
			t.Fatal(err)
		}
		if want := refCombined(im, 8, 8, 16); !sameBits(got, want) {
			t.Fatalf("%dx%d: thumbnail path differs from the reference", w, h)
		}
	})
}
