package vision_test

import (
	"math"
	"math/rand"
	"testing"

	"approxcache/internal/cpu"
	"approxcache/internal/feature"
	"approxcache/internal/vision"
)

// kernelShapes are the frames FuzzFrameKernels draws: the analysis
// resolution (sumBlocks6, the block-sum lane kernel on AVX2), a width
// no segment divides, a frame smaller than the 8×8 grid, two longer
// than 255 vectors of 32 pixels (where the AVX2 histogram flushes its
// byte lanes), one of them a single level, which puts every pixel of a
// vector in the same bin's lanes, and two more 48 pixels wide: one
// whose block rows are 5 and 6 rows tall, and one shorter than the
// grid, three of whose block rows hold no rows. New shapes go at the
// end, so that every seed keeps its shape.
var kernelShapes = []struct {
	w, h int
	flat bool
}{{48, 48, false}, {37, 29, false}, {5, 3, false}, {91, 91, false}, {97, 90, true}, {48, 45, false}, {48, 5, false}}

// forEachKernel runs check with the AVX2 kernels (on a host that has
// them) and then with the Go kernels, for every package at once —
// this one's frame diff and feature's histogram — by clearing
// cpu.HasAVX2 for the second run. Every kernel in vision, feature and
// lsh reads that variable unsynchronised, so forEachKernel must never
// run alongside another test or goroutine: no caller may use
// t.Parallel or start background work, or -race reports a race that
// shows only on some runs.
func forEachKernel(check func(path string)) {
	host := cpu.HasAVX2
	defer func() { cpu.HasAVX2 = host }()
	if host {
		check("avx2")
	}
	cpu.HasAVX2 = false
	check("go")
}

// FuzzFrameKernels checks every integer frame kernel against a plain
// per-pixel reference on random byte frames, with the AVX2 and the Go
// kernels alike: the bounded diff's decision and value, the thumbnail
// bound, the block sums, the sum of squares and its bound, the guard's
// verdict, and the histogram's fold into every power-of-two bin count
// the AVX2 kernel takes and into 10 bins. Frame a is the fuzzer's bytes
// (topped up from a seeded generator; a flat shape repeats the first
// byte); b is a with every step-th pixel moved by delta, so that small
// diffs and far ones both occur, and the bounds sit at the diff, one
// representable value either side of it, and at the mean of the
// neighbouring integer sums.
func FuzzFrameKernels(f *testing.F) {
	if !cpu.HasAVX2 {
		f.Log("host has no AVX2: checking the Go kernels alone")
	}
	f.Add(uint8(0), uint8(1), uint8(40), []byte{})
	f.Add(uint8(1), uint8(3), uint8(255), []byte{0, 255, 0, 255})
	f.Add(uint8(2), uint8(1), uint8(1), []byte{7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7})
	f.Add(uint8(0), uint8(17), uint8(200), []byte{128})
	f.Add(uint8(3), uint8(5), uint8(9), []byte{})
	f.Add(uint8(4), uint8(63), uint8(1), []byte{200})
	f.Add(uint8(5), uint8(2), uint8(128), []byte{255, 255, 255, 255, 255, 255})
	f.Add(uint8(6), uint8(0), uint8(77), []byte{1, 2, 3})
	f.Fuzz(func(t *testing.T, shape, step, delta uint8, raw []byte) {
		sz := kernelShapes[int(shape)%len(kernelShapes)]
		w, h := sz.w, sz.h
		n := w * h
		a := vision.NewImage(w, h)
		rand.New(rand.NewSource(int64(len(raw))<<8 | int64(shape))).Read(a.Pix)
		copy(a.Pix, raw)
		if sz.flat {
			for i := range a.Pix {
				a.Pix[i] = a.Pix[0]
			}
		}
		b := a.Clone()
		for i := 0; i < n; i += 1 + int(step)%64 {
			b.Pix[i] = uint8((int(b.Pix[i]) + int(delta)) % 256)
		}
		forEachKernel(func(path string) { checkFrameKernels(t, path, a, b) })
	})
}

// checkFrameKernels is one FuzzFrameKernels input run through the
// kernels path names.
func checkFrameKernels(t *testing.T, path string, a, b *vision.Image) {
	w, h, n := a.W, a.H, len(a.Pix)
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
			t.Fatalf("%s kernels, %dx%d bound %v: bounded diff %v, true diff %v decide differently", path, w, h, bound, got, d)
		}
		if d <= bound && got != d {
			t.Fatalf("%s kernels, %dx%d bound %v: bounded diff %v, want exactly %v", path, w, h, bound, got, d)
		}
		if d <= bound && (ta.Farther(&tb, bound) || tb.Farther(&ta, bound)) {
			t.Fatalf("%s kernels, %dx%d bound %v: thumbnails claim a diff of %v is farther", path, w, h, bound, d)
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
				t.Fatalf("%s kernels, %dx%d block %d: sum %d, want %d", path, w, h, i, got, want)
			}
			all += want
		}
		if total != all {
			t.Fatalf("%s kernels, %dx%d: pixel sum %d, want %d", path, w, h, total, all)
		}
		// The sum of squares, its block-sum bound, and the verdict
		// they give.
		sq := 0
		for _, p := range im.Pix {
			sq += int(p) * int(p)
		}
		if got := vision.SumSquares(im.Pix); got != sq {
			t.Fatalf("%s kernels, %dx%d: sum of squares %d, want %d", path, w, h, got, sq)
		}
		if lb := vision.SquareBound(&th); lb < 0 || lb > sq {
			t.Fatalf("%s kernels, %dx%d: square bound %d outside [0, %d]", path, w, h, lb, sq)
		}
		for _, minStd := range []float64{0.01, 0.05, 0.3} {
			std := math.Sqrt(max(float64(n)*float64(sq)-float64(all)*float64(all), 0)) / (vision.MaxLevel * float64(n))
			want := vision.FrameOK
			if std < minStd {
				want = vision.FrameLowEntropy
			}
			if got := vision.CheckFrame(im, vision.FrameGuardConfig{MinStdDev: minStd}); got != want {
				t.Fatalf("%s kernels, %dx%d MinStdDev %v: verdict %v, want %v (std %v)", path, w, h, minStd, got, want, std)
			}
		}
		// The histogram: level k in bin floor(k·bins/255), white in
		// the last. A descriptor with a 1×1 grid is the frame's mean
		// followed by the histogram, scaled to unit norm; the reference
		// builds the same vector and scales it the same way.
		for _, bins := range []int{1, 2, 4, 8, 16, 32, 10} {
			got, err := feature.GridHistogram{Cols: 1, Rows: 1, Bins: bins}.Extract(im)
			if err != nil {
				t.Fatal(err)
			}
			want := make(feature.Vector, 1+bins)
			want[0] = float64(all) / float64(vision.MaxLevel*n)
			for _, p := range im.Pix {
				want[1+min(int(p)*bins/vision.MaxLevel, bins-1)]++
			}
			for i := 1; i < len(want); i++ {
				want[i] /= float64(n)
			}
			want.Normalize()
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s kernels, %dx%d, %d bins: dimension %d holds %v, want %v", path, w, h, bins, i, got[i], want[i])
				}
			}
		}
	}
}
