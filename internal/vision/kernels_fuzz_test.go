package vision_test

import (
	"math"
	"math/rand"
	"testing"

	"approxcache/internal/feature"
	"approxcache/internal/vision"
)

// kernelShapes are the frame sizes FuzzFrameKernels draws from: the
// analysis resolution (the straight-line block kernel), a width no
// segment divides, and a frame smaller than the 8×8 grid.
var kernelShapes = [][2]int{{48, 48}, {37, 29}, {5, 3}}

// FuzzFrameKernels checks every integer frame kernel against a plain
// per-pixel reference on random byte frames: the bounded diff's decision
// and value, the thumbnail bound, the block sums, the sum of squares and
// its bound, the guard's verdict, and the histogram's fold into 16, 32
// and 10 bins. Frame a is the fuzzer's bytes (topped up from a seeded
// generator); b is a with every step-th pixel moved by delta, so that
// small diffs and far ones both occur, and the bounds sit at the diff,
// one representable value either side of it, and at the mean of the
// neighbouring integer sums.
func FuzzFrameKernels(f *testing.F) {
	f.Add(uint8(0), uint8(1), uint8(40), []byte{})
	f.Add(uint8(1), uint8(3), uint8(255), []byte{0, 255, 0, 255})
	f.Add(uint8(2), uint8(1), uint8(1), []byte{7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7})
	f.Add(uint8(0), uint8(17), uint8(200), []byte{128})
	f.Fuzz(func(t *testing.T, shape, step, delta uint8, raw []byte) {
		sz := kernelShapes[int(shape)%len(kernelShapes)]
		w, h := sz[0], sz[1]
		n := w * h
		a := vision.NewImage(w, h)
		rand.New(rand.NewSource(int64(len(raw))<<8 | int64(shape))).Read(a.Pix)
		copy(a.Pix, raw)
		b := a.Clone()
		for i := 0; i < n; i += 1 + int(step)%64 {
			b.Pix[i] = uint8((int(b.Pix[i]) + int(delta)) % 256)
		}

		// Bounded diff against Σ|a−b| / (255·n).
		var sum int
		for i := range a.Pix {
			sum += max(int(a.Pix[i])-int(b.Pix[i]), int(b.Pix[i])-int(a.Pix[i]))
		}
		mean := func(s int) float64 { return float64(s) / float64(vision.MaxLevel*n) }
		d := mean(sum)
		var ta, tb vision.Thumb
		ta.Fill(a)
		tb.Fill(b)
		bounds := []float64{d, math.Nextafter(d, -1), math.Nextafter(d, 2),
			mean(sum - 1), mean(sum + 1), 0.13, 0.0325, 0, 1}
		for _, bound := range bounds {
			got := vision.MeanAbsDiffBounded(a, b, bound)
			if (got <= bound) != (d <= bound) {
				t.Fatalf("%dx%d bound %v: bounded diff %v, true diff %v decide differently", w, h, bound, got, d)
			}
			if d <= bound && got != d {
				t.Fatalf("%dx%d bound %v: bounded diff %v, want exactly %v", w, h, bound, got, d)
			}
			if d <= bound && (ta.Farther(&tb, bound) || tb.Farther(&ta, bound)) {
				t.Fatalf("%dx%d bound %v: thumbnails claim a diff of %v is farther", w, h, bound, d)
			}
		}

		for _, im := range []*vision.Image{a, b} {
			// Block sums over the floor(k·W/8) partition.
			var th vision.Thumb
			total := vision.FillThumb(&th, im)
			cells, all := th.BlockSums(), 0
			for i, got := range cells {
				cx, cy := i%vision.ThumbGrid, i/vision.ThumbGrid
				want := 0
				for y := cy * h / vision.ThumbGrid; y < (cy+1)*h/vision.ThumbGrid; y++ {
					for x := cx * w / vision.ThumbGrid; x < (cx+1)*w/vision.ThumbGrid; x++ {
						want += int(im.Pix[y*w+x])
					}
				}
				if got != want {
					t.Fatalf("%dx%d block %d: sum %d, want %d", w, h, i, got, want)
				}
				all += want
			}
			if total != all {
				t.Fatalf("%dx%d: pixel sum %d, want %d", w, h, total, all)
			}
			// The sum of squares, its block-sum bound, and the verdict
			// they give.
			sq := 0
			for _, p := range im.Pix {
				sq += int(p) * int(p)
			}
			if got := vision.SumSquares(im.Pix); got != sq {
				t.Fatalf("%dx%d: sum of squares %d, want %d", w, h, got, sq)
			}
			if lb := vision.SquareBound(&th); lb < 0 || lb > sq {
				t.Fatalf("%dx%d: square bound %d outside [0, %d]", w, h, lb, sq)
			}
			for _, minStd := range []float64{0.01, 0.05, 0.3} {
				std := math.Sqrt(max(float64(n)*float64(sq)-float64(all)*float64(all), 0)) / (vision.MaxLevel * float64(n))
				want := vision.FrameOK
				if std < minStd {
					want = vision.FrameLowEntropy
				}
				if got := vision.CheckFrame(im, vision.FrameGuardConfig{MinStdDev: minStd}); got != want {
					t.Fatalf("%dx%d MinStdDev %v: verdict %v, want %v (std %v)", w, h, minStd, got, want, std)
				}
			}
			// The histogram: level k in bin floor(k·bins/255), white in
			// the last.
			for _, bins := range []int{16, 32, 10} {
				got, err := feature.HistogramExtractor{Bins: bins}.Extract(im)
				if err != nil {
					t.Fatal(err)
				}
				want := make([]float64, bins)
				for _, p := range im.Pix {
					want[min(int(p)*bins/vision.MaxLevel, bins-1)]++
				}
				for i := range want {
					if want[i] /= float64(n); got[i] != want[i] {
						t.Fatalf("%dx%d, %d bins: bin %d holds %v, want %v", w, h, bins, i, got[i], want[i])
					}
				}
			}
		}
	})
}
