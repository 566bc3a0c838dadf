package vision

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// refMeanAbsDiff is the frame difference as it was before the bounded
// kernel: one unconditional pass. MeanAbsDiffBounded must reproduce its
// bits.
func refMeanAbsDiff(a, b *Image) float64 {
	var sum float64
	for i := range a.Pix {
		sum += math.Abs(a.Pix[i] - b.Pix[i])
	}
	return sum / float64(len(a.Pix))
}

// refCheckFrame is the frame guard as it was before the fused thumbnail
// pass: every pixel tested for NaN/Inf, one running sum.
func refCheckFrame(im *Image, cfg FrameGuardConfig) FrameFault {
	if im == nil {
		return FrameNil
	}
	if im.W <= 0 || im.H <= 0 || len(im.Pix) != im.W*im.H {
		return FrameEmpty
	}
	return checkPixels(im, cfg)
}

func randomImage(rng *rand.Rand, w, h int) *Image {
	im := NewImage(w, h)
	for i := range im.Pix {
		im.Pix[i] = rng.Float64()
	}
	return im
}

func thumbOf(im *Image) *Thumb {
	var th Thumb
	th.Fill(im)
	return &th
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
	oneHot.Pix[rng.Intn(len(oneHot.Pix))] += 0.9
	pairs = append(pairs, [2]*Image{base, oneHot})
	for _, shift := range []float64{0.12, -0.12, 0.13, 0.14} {
		s := base.Clone()
		for i := range s.Pix {
			s.Pix[i] += shift
		}
		pairs = append(pairs, [2]*Image{base, s})
	}
	patch := base.Clone()
	for y := 0; y < (h+1)/2; y++ {
		for x := 0; x < (w+1)/2; x++ {
			patch.Pix[y*w+x] *= 0.2
		}
	}
	pairs = append(pairs, [2]*Image{base, patch})
	ca, cb := NewImage(w, h), NewImage(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			ca.Pix[y*w+x] = float64((x + y) % 2)
			cb.Pix[y*w+x] = float64((x + y + 1) % 2)
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
			if area != float64(want) {
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

func TestThumbBoundNeverExceedsMeanAbsDiff(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, sz := range thumbSizes {
		for _, pr := range thumbPairs(t, rng, sz[0], sz[1]) {
			a, b := pr[0], pr[1]
			ta, tb := thumbOf(a), thumbOf(b)
			d := refMeanAbsDiff(a, b)
			lb := ta.lowerBound(tb)
			if lb > d+1e-12 {
				t.Fatalf("%dx%d: thumbnail bound %v exceeds MeanAbsDiff %v", sz[0], sz[1], lb, d)
			}
			if lb != tb.lowerBound(ta) {
				t.Fatalf("%dx%d: bound is not symmetric", sz[0], sz[1])
			}
			// Farther may only say yes when the exact diff agrees — at
			// the diff itself, just below it, and at the gate's scale.
			for _, bound := range []float64{d, d * (1 - 1e-12), d / 2, 0.13, 0.0325, 0} {
				if ta.Farther(tb, bound) && !(d > bound) {
					t.Fatalf("%dx%d: Farther(bound %v) but MeanAbsDiff = %v", sz[0], sz[1], bound, d)
				}
			}
		}
	}
}

// A global brightness shift moves every block sum by the same sign, so
// the bound is tight there: the gate's thumbnail stage rejects on its
// own whenever the shift is clearly past the threshold.
func TestThumbBoundTightOnBrightnessShift(t *testing.T) {
	a := randomImage(rand.New(rand.NewSource(3)), 48, 48)
	b := a.Clone()
	for i := range b.Pix {
		b.Pix[i] += 0.2
	}
	ta, tb := thumbOf(a), thumbOf(b)
	if lb, d := ta.lowerBound(tb), MeanAbsDiff(a, b); math.Abs(lb-d) > 1e-12 {
		t.Fatalf("bound %v, diff %v: want equal", lb, d)
	}
	if !ta.Farther(tb, 0.13) {
		t.Fatal("a 0.2 brightness shift was not rejected by the thumbnails")
	}
}

func TestThumbFartherMakesNoClaimWithoutEvidence(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a, far := NewImage(16, 16), NewImage(16, 16)
	for i := range far.Pix {
		far.Pix[i] = 1
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
		wide.Pix[i] = 1
	}
	if ta.Farther(thumbOf(wide), 0.13) {
		t.Fatal("thumbnails of differently shaped frames compared")
	}
	// Non-finite and overflowing pixels disable the bound rather than
	// corrupt it.
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 1e200, -1e200, math.MaxFloat64} {
		bad := randomImage(rng, 16, 16)
		bad.Pix[37] = v
		if tb := thumbOf(bad); tb.Farther(ta, 0.13) || ta.Farther(tb, 0.13) {
			t.Fatalf("pixel %v: thumbnail still made a claim", v)
		}
	}
	// Malformed frames summarise to the empty thumbnail.
	for _, im := range []*Image{nil, {}, {W: 4, H: 4, Pix: make([]float64, 3)}, {W: -2, H: -2, Pix: make([]float64, 4)}} {
		th := *ta
		th.Fill(im)
		if th != (Thumb{}) {
			t.Fatalf("malformed frame %+v left a non-empty thumbnail", im)
		}
	}
}

// Large-magnitude pixels make the block sums' rounding error large in
// absolute terms; the slack scales with the frames' RMS so the bound
// still never contradicts the exact diff.
func TestThumbFartherSoundForLargePixels(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, scale := range []float64{1e3, 1e6, 1e9, 1e12} {
		for i := 0; i < 50; i++ {
			a := randomImage(rng, 48, 48)
			for j := range a.Pix {
				a.Pix[j] = (a.Pix[j] - 0.5) * scale
			}
			b := a.Clone()
			for j := range b.Pix {
				b.Pix[j] += (rng.Float64() - 0.5) * 0.2
			}
			d := refMeanAbsDiff(a, b)
			for _, bound := range []float64{d, 0.13, 0.05} {
				if thumbOf(a).Farther(thumbOf(b), bound) && !(d > bound) {
					t.Fatalf("scale %g: Farther(bound %v) but MeanAbsDiff = %v", scale, bound, d)
				}
			}
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
				want / 2, want * 2, 0.13, 0, 1, math.Inf(1)}
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

// NaN differences must stay "not within any bound" even when the kernel
// stops before reaching the NaN.
func TestMeanAbsDiffBoundedNonFinite(t *testing.T) {
	a, b := NewImage(48, 48), NewImage(48, 48)
	for i := range b.Pix {
		b.Pix[i] = 1
	}
	b.Pix[len(b.Pix)-1] = math.NaN()
	if !math.IsNaN(MeanAbsDiff(a, b)) {
		t.Fatal("full scan lost the NaN")
	}
	if d := MeanAbsDiffBounded(a, b, 0.13); d <= 0.13 {
		t.Fatalf("bounded diff %v is within the bound", d)
	}
	b.Pix[0] = math.NaN()
	if d := MeanAbsDiffBounded(a, b, 0.13); d <= 0.13 {
		t.Fatalf("bounded diff %v is within the bound", d)
	}
}

// Regression: the kernel used to range over a.Pix while indexing b.Pix,
// so a frame whose buffer is shorter than its dimensions claim panicked.
func TestMeanAbsDiffPixelBufferMismatch(t *testing.T) {
	a := NewImage(8, 8)
	for _, n := range []int{0, 10, 63, 65} {
		b := &Image{W: 8, H: 8, Pix: make([]float64, n)}
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

// The fused guard pass must return the per-pixel scan's verdict on every
// input — in particular the structural ones (nil, empty, non-finite),
// including huge finite pixels whose squares overflow and so look
// non-finite to the sum-based shortcut — and leave the same thumbnail as
// Fill.
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
			// NaN sums never compare equal; compare emptiness instead.
			if (th.w == 0) != (filled.w == 0) || (th.rms == th.rms && th != filled) {
				t.Fatalf("%s: guard thumbnail differs from Fill", name)
			}
		}
	}
	check("nil", nil)
	check("zero dims", &Image{})
	check("short buffer", &Image{W: 4, H: 4, Pix: make([]float64, 15)})
	check("long buffer", &Image{W: 4, H: 4, Pix: make([]float64, 17)})
	check("negative dims", &Image{W: -4, H: -4, Pix: make([]float64, 16)})
	for _, sz := range thumbSizes {
		w, h := sz[0], sz[1]
		check("random", randomImage(rng, w, h))
		check("black", NewImage(w, h))
		gray := NewImage(w, h)
		for i := range gray.Pix {
			gray.Pix[i] = 0.3
		}
		check("gray", gray)
		specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1),
			1e154, 1e155, -1e155, 1e200, -1e300, math.MaxFloat64, -math.MaxFloat64}
		for _, v := range specials {
			for _, at := range []int{0, len(gray.Pix) / 2, len(gray.Pix) - 1} {
				im := randomImage(rng, w, h)
				im.Pix[at] = v
				check("special pixel", im)
			}
			all := NewImage(w, h)
			for i := range all.Pix {
				all.Pix[i] = v
			}
			check("special frame", all)
		}
		// +Inf and −Inf together: the plain sum is NaN, not ±Inf.
		if len(gray.Pix) > 1 {
			im := randomImage(rng, w, h)
			im.Pix[0], im.Pix[len(im.Pix)-1] = math.Inf(1), math.Inf(-1)
			check("inf pair", im)
		}
	}
}

// refFill is the thumbnail by definition: each block's pixels added
// block by block, and the squares in a pass of their own — per segment
// from zero, per row, then across rows.
func refFill(im *Image) (th Thumb, sum, sumSq float64) {
	w, h := im.W, im.H
	xb := func(k int) int { return k * w / ThumbGrid }
	yb := func(k int) int { return k * h / ThumbGrid }
	th.w, th.h = w, h
	for cy := 0; cy < ThumbGrid; cy++ {
		for cx := 0; cx < ThumbGrid; cx++ {
			var c float64
			for y := yb(cy); y < yb(cy+1); y++ {
				for x := xb(cx); x < xb(cx+1); x++ {
					c += im.Pix[y*w+x]
				}
			}
			th.cells[cy*ThumbGrid+cx] = c
			sum += c
		}
	}
	for y := 0; y < h; y++ {
		var rowSq float64
		for cx := 0; cx < ThumbGrid; cx++ {
			var q float64
			for x := xb(cx); x < xb(cx+1); x++ {
				q += im.Pix[y*w+x] * im.Pix[y*w+x]
			}
			rowSq += q
		}
		sumSq += rowSq
	}
	th.rms = math.Sqrt(sumSq / float64(w*h))
	return th, sum, sumSq
}

// sameFloat compares bits. Two NaNs match whatever their payloads: when
// both operands of an add are NaN, which payload survives depends on the
// operand order the compiler picked, which no kernel pins.
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// checkThumbKernels fills im with the straight-line kernel (48-wide
// frames only), the loop, whichever of the two fill picks, and the
// reference, and requires the same thumbnail, pixel sum and sum of
// squares from each, bit for bit.
func checkThumbKernels(t *testing.T, name string, im *Image) {
	t.Helper()
	want, wantSum, wantSq := refFill(im)
	kernels := map[string]func(*Thumb) (float64, float64){
		"dispatched": func(th *Thumb) (float64, float64) { return th.fill(im) },
		"loop":       func(th *Thumb) (float64, float64) { return th.fillWith(im, sumBlocks) },
	}
	if im.W == 6*ThumbGrid {
		kernels["straight-line"] = func(th *Thumb) (float64, float64) { return th.fillWith(im, sumBlocks6) }
	}
	for kname, fill := range kernels {
		var th Thumb
		sum, sumSq := fill(&th)
		same := th.w == want.w && th.h == want.h && sameFloat(th.rms, want.rms) &&
			sameFloat(sum, wantSum) && sameFloat(sumSq, wantSq)
		for i := range th.cells {
			same = same && sameFloat(th.cells[i], want.cells[i])
		}
		if !same {
			t.Fatalf("%dx%d %s: %s kernel (sum %v, sumSq %v, %+v) differs from the reference (sum %v, sumSq %v, %+v)",
				im.W, im.H, name, kname, sum, sumSq, th, wantSum, wantSq, want)
		}
	}
}

// Both kernels must reproduce the reference thumbnail bit for bit on
// every shape — the straight-line one on every 48-wide frame, including
// heights not divisible by the grid and shorter than it — and on pixels
// that stress rounding: signed zeros, denormals whose squares underflow,
// magnitudes whose squares overflow, and a non-finite pixel at each end
// and the middle of a segment. A non-finite sum of squares still sends
// the guard to the per-pixel scan.
func TestThumbFillMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	sizes := append([][2]int{{48, 1}, {48, 7}, {48, 8}, {48, 61}, {47, 48}, {49, 48}, {96, 48}}, thumbSizes...)
	cfg := DefaultFrameGuardConfig()
	for _, sz := range sizes {
		w, h := sz[0], sz[1]
		checkThumbKernels(t, "random", randomImage(rng, w, h))
		classes := map[string]func() float64{
			"negative zero": func() float64 { return math.Copysign(0, -1) },
			"denormal":      func() float64 { return float64(rng.Intn(1<<20)-1<<19) * math.SmallestNonzeroFloat64 },
			"1e200":         func() float64 { return (rng.Float64() - 0.5) * 1e200 },
		}
		for name, pixel := range classes {
			im := NewImage(w, h)
			for i := range im.Pix {
				im.Pix[i] = pixel()
			}
			checkThumbKernels(t, name, im)
			if got, want := CheckFrameThumb(im, cfg, new(Thumb)), refCheckFrame(im, cfg); got != want {
				t.Fatalf("%dx%d %s: verdict %v, pixel scan says %v", w, h, name, got, want)
			}
		}
		// One non-finite pixel, as the first, middle or last pixel of a
		// segment, in every segment of the first, middle and last row.
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			for _, y := range []int{0, h / 2, h - 1} {
				for cx := 0; cx < ThumbGrid; cx++ {
					lo, hi := cx*w/ThumbGrid, (cx+1)*w/ThumbGrid
					if lo == hi {
						continue
					}
					for _, x := range []int{lo, (lo + hi - 1) / 2, hi - 1} {
						im := randomImage(rng, w, h)
						im.Pix[y*w+x] = v
						checkThumbKernels(t, "non-finite", im)
						if got := CheckFrameThumb(im, cfg, new(Thumb)); got != FrameNonFinite {
							t.Fatalf("%dx%d: pixel %v at (%d,%d) judged %v", w, h, v, x, y, got)
						}
					}
				}
			}
		}
	}
}

// FuzzThumbFill runs arbitrary pixel bit patterns through both kernels
// and the reference; its seed corpus runs under `go test`.
func FuzzThumbFill(f *testing.F) {
	// 48×48; 48×7 with +Inf then −0; 49×48 with MaxFloat64; 37×29 with
	// a NaN then −Inf.
	f.Add(uint8(47), uint8(47), []byte{})
	f.Add(uint8(47), uint8(6), []byte{0, 0, 0, 0, 0, 0, 0xf0, 0x7f, 0, 0, 0, 0, 0, 0, 0, 0x80})
	f.Add(uint8(48), uint8(47), []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xef, 0x7f})
	f.Add(uint8(36), uint8(28), []byte{1, 0, 0, 0, 0, 0, 0xf8, 0x7f, 0, 0, 0, 0, 0, 0, 0xf0, 0xff})
	f.Fuzz(func(t *testing.T, w8, h8 uint8, raw []byte) {
		// Widths 1–64 and 48 again at every height, so the straight-line
		// kernel gets its share of inputs.
		w, h := 1+int(w8)%64, 1+int(h8)%64
		if w8 >= 192 {
			w = 6 * ThumbGrid
		}
		im := randomImage(rand.New(rand.NewSource(int64(w)<<8|int64(h))), w, h)
		for i := 0; i+8 <= len(raw) && i/8 < len(im.Pix); i += 8 {
			im.Pix[i/8] = math.Float64frombits(binary.LittleEndian.Uint64(raw[i:]))
		}
		checkThumbKernels(t, "fuzzed", im)
	})
}

func BenchmarkHotPathCheckFrame(b *testing.B) {
	// 48×48 is the analysis resolution (the straight-line kernel); 37×29
	// takes the loop.
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
