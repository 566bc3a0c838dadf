package vision

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"approxcache/internal/cpu"
)

// refMeanAbsDiff is the frame difference by definition: every pixel's
// |a−b|, summed, over 255·n.
func refMeanAbsDiff(a, b *Image) float64 {
	var sum int
	for i := range a.Pix {
		sum += absInt(int(a.Pix[i]) - int(b.Pix[i]))
	}
	return float64(sum) / float64(MaxLevel*len(a.Pix))
}

func absInt(d int) int {
	if d < 0 {
		return -d
	}
	return d
}

// refCheckFrame is the frame guard as a plain pixel loop.
func refCheckFrame(im *Image, cfg FrameGuardConfig) FrameFault {
	if im == nil {
		return FrameNil
	}
	if im.W <= 0 || im.H <= 0 || len(im.Pix) != im.W*im.H {
		return FrameEmpty
	}
	var sum, sumSq int
	for _, p := range im.Pix {
		sum += int(p)
		sumSq += int(p) * int(p)
	}
	return entropyVerdict(sum, sumSq, len(im.Pix), cfg)
}

func randomImage(rng *rand.Rand, w, h int) *Image {
	im := NewImage(w, h)
	rng.Read(im.Pix)
	return im
}

func thumbOf(im *Image) *Thumb {
	var th Thumb
	th.Fill(im)
	return &th
}

// brighten returns im with every pixel moved by d levels, saturating
// at black and white.
func brighten(im *Image, d int) *Image {
	out := im.Clone()
	for i, p := range out.Pix {
		out.Pix[i] = uint8(min(max(int(p)+d, 0), MaxLevel))
	}
	return out
}

// thumbPairs yields same-sized frame pairs: random ones, renders of the
// same and of different classes under both perturbation profiles, and
// the adversarial shapes for a block-sum bound — identical frames, a
// single differing pixel, a global brightness shift (the bound is
// tight), an occlusion patch, and a checkerboard whose block sums all
// cancel (the bound is 0 while the frames are far apart).
func thumbPairs(t *testing.T, rng *rand.Rand, w, h int) [][2]*Image {
	t.Helper()
	var pairs [][2]*Image
	for i := 0; i < 8; i++ {
		pairs = append(pairs, [2]*Image{randomImage(rng, w, h), randomImage(rng, w, h)})
	}
	cs, err := NewClassSet(4, w, h, rng.Int63())
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []Perturbation{DefaultPerturbation(), HardPerturbation()} {
		for c := 0; c < 4; c++ {
			a, _ := cs.Render(c, p, rng)
			b, _ := cs.Render(c, p, rng)
			o, _ := cs.Render((c+1)%4, p, rng)
			pairs = append(pairs, [2]*Image{a, b}, [2]*Image{a, o})
		}
	}
	base := randomImage(rng, w, h)
	pairs = append(pairs, [2]*Image{base, base.Clone()})
	oneHot := base.Clone()
	oneHot.Pix[rng.Intn(len(oneHot.Pix))] ^= 0xe6
	pairs = append(pairs, [2]*Image{base, oneHot})
	for _, shift := range []int{31, -31, 33, 36} {
		pairs = append(pairs, [2]*Image{base, brighten(base, shift)})
	}
	patch := base.Clone()
	for y := 0; y < (h+1)/2; y++ {
		for x := 0; x < (w+1)/2; x++ {
			patch.Pix[y*w+x] /= 5
		}
	}
	pairs = append(pairs, [2]*Image{base, patch})
	ca, cb := NewImage(w, h), NewImage(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			ca.Pix[y*w+x] = uint8((x + y) % 2 * MaxLevel)
			cb.Pix[y*w+x] = uint8((x + y + 1) % 2 * MaxLevel)
		}
	}
	return append(pairs, [2]*Image{ca, cb})
}

// thumbSizes covers dimensions divisible by the thumbnail grid, not
// divisible by it, just above it, equal to it, smaller than it (some
// blocks are empty), and a single pixel.
var thumbSizes = [][2]int{{48, 48}, {37, 29}, {16, 8}, {9, 13}, {8, 8}, {5, 3}, {1, 1}}

// The blocks partition the frame along the 8×8 grid descriptor's cell
// boundaries (floor(k·W/8)): every pixel lands in exactly one block, the
// one whose bounds contain it, at every size — which is what makes the
// block-sum bound a bound and the sums the grid's cell sums.
func TestThumbBlocksPartitionTheFrame(t *testing.T) {
	for _, sz := range thumbSizes {
		w, h := sz[0], sz[1]
		ones := NewImage(w, h)
		for i := range ones.Pix {
			ones.Pix[i] = 1
		}
		for i, area := range thumbOf(ones).BlockSums() {
			cx, cy := i%ThumbGrid, i/ThumbGrid
			want := ((cx+1)*w/ThumbGrid - cx*w/ThumbGrid) * ((cy+1)*h/ThumbGrid - cy*h/ThumbGrid)
			if area != want {
				t.Fatalf("%dx%d block %d holds %v pixels, want %d", w, h, i, area, want)
			}
		}
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				im := NewImage(w, h)
				im.Pix[y*w+x] = 1
				for i, s := range thumbOf(im).BlockSums() {
					cx, cy := i%ThumbGrid, i/ThumbGrid
					inside := cx*w/ThumbGrid <= x && x < (cx+1)*w/ThumbGrid &&
						cy*h/ThumbGrid <= y && y < (cy+1)*h/ThumbGrid
					if (s == 1) != inside || (s != 0 && s != 1) {
						t.Fatalf("%dx%d pixel (%d,%d): block %d sums to %v", w, h, x, y, i, s)
					}
				}
			}
		}
	}
}

func TestThumbCovers(t *testing.T) {
	im := NewImage(16, 8)
	th := thumbOf(im)
	var empty Thumb
	switch {
	case !th.Covers(im), !th.Covers(NewImage(16, 8)):
		t.Fatal("thumbnail does not cover a frame of its own size")
	case th.Covers(NewImage(8, 16)), th.Covers(NewImage(16, 9)), th.Covers(nil):
		t.Fatal("thumbnail covers a frame of another size")
	case empty.Covers(im), empty.Covers(&Image{}), empty.Covers(nil):
		t.Fatal("the empty thumbnail covers something")
	}
}

// diffSum is the integer numerator of MeanAbsDiff.
func diffSum(a, b *Image) int {
	var sum int
	for i := range a.Pix {
		sum += absInt(int(a.Pix[i]) - int(b.Pix[i]))
	}
	return sum
}

func TestThumbBoundNeverExceedsMeanAbsDiff(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, sz := range thumbSizes {
		for _, pr := range thumbPairs(t, rng, sz[0], sz[1]) {
			a, b := pr[0], pr[1]
			ta, tb := thumbOf(a), thumbOf(b)
			d := refMeanAbsDiff(a, b)
			lb := ta.lowerBound(tb)
			if lb > diffSum(a, b) {
				t.Fatalf("%dx%d: thumbnail bound %v exceeds the difference sum %v", sz[0], sz[1], lb, diffSum(a, b))
			}
			if lb != tb.lowerBound(ta) {
				t.Fatalf("%dx%d: bound is not symmetric", sz[0], sz[1])
			}
			// Farther may only say yes when the exact diff agrees — at
			// the diff itself, just below it, and at the gate's scale.
			for _, bound := range []float64{d, math.Nextafter(d, -1), d / 2, 0.13, 0.0325, 0} {
				if ta.Farther(tb, bound) && !(d > bound) {
					t.Fatalf("%dx%d: Farther(bound %v) but MeanAbsDiff = %v", sz[0], sz[1], bound, d)
				}
			}
		}
	}
}

// A global brightness shift moves every block sum by the same sign, so
// the bound is tight there: the gate's thumbnail stage rejects on its
// own whenever the shift is past the threshold.
func TestThumbBoundTightOnBrightnessShift(t *testing.T) {
	a := randomImage(rand.New(rand.NewSource(3)), 48, 48)
	for i := range a.Pix {
		a.Pix[i] %= 200
	}
	b := brighten(a, 51)
	ta, tb := thumbOf(a), thumbOf(b)
	if lb, sum := ta.lowerBound(tb), diffSum(a, b); lb != sum {
		t.Fatalf("bound %v, difference sum %v: want equal", lb, sum)
	}
	if d := MeanAbsDiff(a, b); d != 0.2 || !ta.Farther(tb, math.Nextafter(d, 0)) || ta.Farther(tb, d) {
		t.Fatalf("a 0.2 brightness shift (diff %v) was not decided by the thumbnails alone", d)
	}
}

func TestThumbFartherMakesNoClaimWithoutEvidence(t *testing.T) {
	a, far := NewImage(16, 16), NewImage(16, 16)
	for i := range far.Pix {
		far.Pix[i] = MaxLevel
	}
	ta := thumbOf(a)
	if !ta.Farther(thumbOf(far), 0.13) {
		t.Fatal("black vs white not rejected")
	}
	var empty Thumb
	if empty.Farther(ta, 0) || ta.Farther(&empty, 0) || empty.Farther(&empty, 0) {
		t.Fatal("an empty thumbnail proved something")
	}
	// Same pixel count, different shape: block sums are not comparable.
	wide := NewImage(32, 8)
	for i := range wide.Pix {
		wide.Pix[i] = MaxLevel
	}
	if ta.Farther(thumbOf(wide), 0.13) {
		t.Fatal("thumbnails of differently shaped frames compared")
	}
	// Malformed frames summarise to the empty thumbnail.
	for _, im := range []*Image{nil, {}, {W: 4, H: 4, Pix: make([]uint8, 3)}, {W: -2, H: -2, Pix: make([]uint8, 4)}} {
		th := *ta
		th.Fill(im)
		if th != (Thumb{}) {
			t.Fatalf("malformed frame %+v left a non-empty thumbnail", im)
		}
	}
}

// Full-scale pixels give the largest block sums: frames of black and
// white pixels, one a few flips from the other, are decided exactly at
// their own diff — Farther says yes just below it and no at it.
func TestThumbFartherSoundForLargePixels(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 50; i++ {
		a := randomImage(rng, 48, 48)
		for j, p := range a.Pix {
			a.Pix[j] = p >> 7 * MaxLevel
		}
		b := a.Clone()
		for k := 0; k < 1+rng.Intn(40); k++ {
			b.Pix[rng.Intn(len(b.Pix))] ^= MaxLevel
		}
		d := refMeanAbsDiff(a, b)
		ta, tb := thumbOf(a), thumbOf(b)
		for _, bound := range []float64{d, 0.13, 0.05, math.Inf(1)} {
			if ta.Farther(tb, bound) && !(d > bound) {
				t.Fatalf("Farther(bound %v) but MeanAbsDiff = %v", bound, d)
			}
		}
		if lb := ta.lowerBound(tb); lb == diffSum(a, b) && !ta.Farther(tb, math.Nextafter(d, -1)) {
			t.Fatalf("a tight bound (%v) did not decide just below the diff %v", lb, d)
		}
	}
}

func TestMeanAbsDiffBoundedAgreesWithFullScan(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	// 48×48 spans several abandon checks; the others end mid-block.
	for _, sz := range append(thumbSizes, [2]int{64, 40}) {
		for _, pr := range thumbPairs(t, rng, sz[0], sz[1]) {
			a, b := pr[0], pr[1]
			want := refMeanAbsDiff(a, b)
			if got := MeanAbsDiff(a, b); got != want {
				t.Fatalf("%dx%d: MeanAbsDiff = %v, reference %v", sz[0], sz[1], got, want)
			}
			bounds := []float64{want, math.Nextafter(want, 2), math.Nextafter(want, -1),
				want / 2, want * 2, 0.13, 0, -0.5, 1, math.Inf(1), math.NaN()}
			for _, bound := range bounds {
				got := MeanAbsDiffBounded(a, b, bound)
				switch {
				case want <= bound && got != want:
					t.Fatalf("%dx%d bound %v: got %v, want exactly %v", sz[0], sz[1], bound, got, want)
				case !(want <= bound) && got <= bound:
					t.Fatalf("%dx%d bound %v: got %v for a true diff of %v", sz[0], sz[1], bound, got, want)
				}
			}
		}
	}
}

// Regression: the kernel used to range over a.Pix while indexing b.Pix,
// so a frame whose buffer is shorter than its dimensions claim panicked.
func TestMeanAbsDiffPixelBufferMismatch(t *testing.T) {
	a := NewImage(8, 8)
	for _, n := range []int{0, 10, 63, 65} {
		b := &Image{W: 8, H: 8, Pix: make([]uint8, n)}
		if d := MeanAbsDiff(a, b); d != 1 {
			t.Fatalf("MeanAbsDiff(64 px, %d px) = %v, want 1", n, d)
		}
		if d := MeanAbsDiff(b, a); d != 1 {
			t.Fatalf("MeanAbsDiff(%d px, 64 px) = %v, want 1", n, d)
		}
		if d := MeanAbsDiffBounded(a, b, 0.13); d != 1 {
			t.Fatalf("MeanAbsDiffBounded(64 px, %d px) = %v, want 1", n, d)
		}
	}
}

// The fused guard pass must return the plain pixel loop's verdict on
// every input — the structural ones (nil, empty), uniform frames at
// every level, a single pixel off, a checkerboard (every block sum
// equal, so the block-sum test cannot pass it), contrast just around
// the threshold — and leave the same thumbnail as Fill.
func TestCheckFrameThumbMatchesPixelScan(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	cfgs := []FrameGuardConfig{DefaultFrameGuardConfig(), {}, {MinStdDev: 0.3}}
	check := func(name string, im *Image) {
		t.Helper()
		for _, cfg := range cfgs {
			var th Thumb
			got, want := CheckFrameThumb(im, cfg, &th), refCheckFrame(im, cfg)
			if got != want {
				t.Fatalf("%s (MinStdDev %v): verdict %v, pixel scan says %v", name, cfg.MinStdDev, got, want)
			}
			if CheckFrame(im, cfg) != want {
				t.Fatalf("%s: CheckFrame disagrees with CheckFrameThumb", name)
			}
			var filled Thumb
			filled.Fill(im)
			if th != filled {
				t.Fatalf("%s: guard thumbnail differs from Fill", name)
			}
		}
	}
	check("nil", nil)
	check("zero dims", &Image{})
	check("short buffer", &Image{W: 4, H: 4, Pix: make([]uint8, 15)})
	check("long buffer", &Image{W: 4, H: 4, Pix: make([]uint8, 17)})
	check("negative dims", &Image{W: -4, H: -4, Pix: make([]uint8, 16)})
	for _, sz := range thumbSizes {
		w, h := sz[0], sz[1]
		check("random", randomImage(rng, w, h))
		for _, level := range []uint8{0, 1, 128, 254, MaxLevel} {
			flat := NewImage(w, h)
			for i := range flat.Pix {
				flat.Pix[i] = level
			}
			check("flat", flat)
			for _, at := range []int{0, len(flat.Pix) / 2, len(flat.Pix) - 1} {
				im := flat.Clone()
				im.Pix[at] ^= MaxLevel
				check("one pixel off", im)
			}
		}
		checker := NewImage(w, h)
		for i := range checker.Pix {
			checker.Pix[i] = uint8(100 + (i+i/w)%2*10)
		}
		check("checker", checker)
		// A flat frame with every k-th pixel 6 levels up: the standard
		// deviation, 6·√(p(1−p)) levels for p = 1/k, crosses the default
		// 0.01 (2.55 levels) between k = 4 and k = 5.
		for k := 1; k <= 12; k++ {
			steps := NewImage(w, h)
			for i := range steps.Pix {
				steps.Pix[i] = 100
				if i%k == 0 {
					steps.Pix[i] = 106
				}
			}
			check("steps", steps)
		}
	}
}

// refFill is the thumbnail by definition: each block's pixels added
// block by block, and the squares in a pass of their own.
func refFill(im *Image) (th Thumb, sum, sumSq int) {
	w, h := im.W, im.H
	xb := func(k int) int { return k * w / ThumbGrid }
	yb := func(k int) int { return k * h / ThumbGrid }
	th.w, th.h = w, h
	for cy := 0; cy < ThumbGrid; cy++ {
		for cx := 0; cx < ThumbGrid; cx++ {
			var c int
			for y := yb(cy); y < yb(cy+1); y++ {
				for x := xb(cx); x < xb(cx+1); x++ {
					c += int(im.Pix[y*w+x])
				}
			}
			th.cells[cy*ThumbGrid+cx] = c
			sum += c
		}
	}
	for _, p := range im.Pix {
		sumSq += int(p) * int(p)
	}
	return th, sum, sumSq
}

// checkThumbKernels fills im with the loop, with sumBlocks6's Go body
// and lane kernel (48-wide frames only; the lanes on an AVX2 host) and
// with whichever fill picks, and requires the reference's thumbnail and
// pixel sum from each; the sum of squares must be exact, and the
// thumbnail's bound on it must hold.
func checkThumbKernels(t *testing.T, name string, im *Image) {
	t.Helper()
	want, wantSum, wantSq := refFill(im)
	kernels := map[string]func(*[ThumbGrid * ThumbGrid]int, *Image){"loop": sumBlocks}
	if im.W == 6*ThumbGrid {
		// Clearing cpu.HasAVX2 is safe here: no test in this package
		// runs in parallel.
		kernels["straight-line"] = func(cells *[ThumbGrid * ThumbGrid]int, im *Image) {
			host := cpu.HasAVX2
			defer func() { cpu.HasAVX2 = host }()
			cpu.HasAVX2 = false
			sumBlocks6(cells, im)
		}
		if cpu.HasAVX2 {
			kernels["lanes"] = sumBlocks6
		}
	}
	for kname, kernel := range kernels {
		th := Thumb{w: im.W, h: im.H}
		kernel(&th.cells, im)
		if th != want {
			t.Fatalf("%dx%d %s: %s kernel %+v differs from the reference %+v", im.W, im.H, name, kname, th, want)
		}
	}
	var th Thumb
	if sum := th.fill(im); th != want || sum != wantSum {
		t.Fatalf("%dx%d %s: fill (sum %v, %+v) differs from the reference (sum %v, %+v)",
			im.W, im.H, name, sum, th, wantSum, want)
	}
	if got := sumSquares(im.Pix); got != wantSq {
		t.Fatalf("%dx%d %s: sum of squares %v, want %v", im.W, im.H, name, got, wantSq)
	}
	if lb := th.squareBound(); lb > wantSq || lb < 0 {
		t.Fatalf("%dx%d %s: square bound %v outside [0, %v]", im.W, im.H, name, lb, wantSq)
	}
}

// Every kernel must reproduce the reference thumbnail on every shape —
// sumBlocks6's two on every 48-wide frame, including heights not
// divisible by the grid and shorter than it, and widths just off 48 —
// and on random, full-scale and checkerboard pixels.
func TestThumbFillMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	sizes := append([][2]int{{48, 1}, {48, 7}, {48, 8}, {48, 61}, {47, 48}, {49, 48}, {96, 48}}, thumbSizes...)
	for _, sz := range sizes {
		w, h := sz[0], sz[1]
		checkThumbKernels(t, "random", randomImage(rng, w, h))
		white := NewImage(w, h)
		for i := range white.Pix {
			white.Pix[i] = MaxLevel
		}
		checkThumbKernels(t, "white", white)
		checker := NewImage(w, h)
		for i := range checker.Pix {
			checker.Pix[i] = uint8(i % 2 * MaxLevel)
		}
		checkThumbKernels(t, "checker", checker)
	}
}

// FuzzThumbFill runs arbitrary pixel bytes through every kernel and the
// reference; its seed corpus runs under `go test`.
func FuzzThumbFill(f *testing.F) {
	// 48×48; 48×7 with white then black; 49×48 all white; 37×29.
	f.Add(uint8(47), uint8(47), []byte{})
	f.Add(uint8(47), uint8(6), []byte{0xff, 0, 0xff, 0, 0xff})
	f.Add(uint8(48), uint8(47), []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Add(uint8(36), uint8(28), []byte{1, 2, 3, 0xfe})
	f.Fuzz(func(t *testing.T, w8, h8 uint8, raw []byte) {
		// Widths 1–64 and 48 again at every height, so the straight-line
		// kernel gets its share of inputs.
		w, h := 1+int(w8)%64, 1+int(h8)%64
		if w8 >= 192 {
			w = 6 * ThumbGrid
		}
		im := randomImage(rand.New(rand.NewSource(int64(w)<<8|int64(h))), w, h)
		copy(im.Pix, raw)
		checkThumbKernels(t, "fuzzed", im)
	})
}

// coldFrames is how many distinct 48×48 frames the cold row cycles
// through: 6 000 × 2 304 B ≈ 13.2 MiB, the device-video workload's
// frame count, so every pass reads a frame it has not read for 5 999
// passes, as the end-to-end frame pass does.
const coldFrames = 6000

// coldFrameSet is built once per process: the benchmark function runs
// more than once per -bench invocation.
var coldFrameSet []*Image

// BenchmarkHotPathCheckFrame is the guard's pass over one frame. 48×48
// is the analysis resolution and 37×29 a width no segment divides,
// both over a frame already in cache; 48x48-cold reads each frame for
// the first time in a while.
func BenchmarkHotPathCheckFrame(b *testing.B) {
	b.Run("48x48-cold", func(b *testing.B) {
		if coldFrameSet == nil {
			rng := rand.New(rand.NewSource(1))
			pix := make([]uint8, coldFrames*48*48)
			rng.Read(pix)
			for i := 0; i < coldFrames; i++ {
				coldFrameSet = append(coldFrameSet, &Image{W: 48, H: 48, Pix: pix[i*48*48 : (i+1)*48*48]})
			}
		}
		cfg := DefaultFrameGuardConfig()
		var th Thumb
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if CheckFrameThumb(coldFrameSet[i%coldFrames], cfg, &th) != FrameOK {
				b.Fatal("healthy frame refused")
			}
		}
	})
	for _, sz := range [][2]int{{48, 48}, {37, 29}} {
		b.Run(fmt.Sprintf("%dx%d", sz[0], sz[1]), func(b *testing.B) {
			im := randomImage(rand.New(rand.NewSource(1)), sz[0], sz[1])
			cfg := DefaultFrameGuardConfig()
			var th Thumb
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if CheckFrameThumb(im, cfg, &th) != FrameOK {
					b.Fatal("healthy frame refused")
				}
			}
		})
	}
}
