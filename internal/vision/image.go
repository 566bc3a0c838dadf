// Package vision provides the synthetic camera-frame substrate.
//
// The paper evaluates on live smartphone camera input, which is not
// available here. What every reuse gate in approxcache depends on is the
// *similarity structure* of that input: frames of the same scene are
// close to each other, frames of the same object class cluster, and
// distinct classes are separated. This package synthesizes grayscale
// frames with exactly that structure — a deterministic prototype image
// per class, perturbed per frame by noise, global brightness shifts,
// small translations, and occlusion patches — with a controllable
// difficulty knob.
package vision

import (
	"fmt"
	"math"
	"math/rand"
)

// Image is a dense grayscale frame with pixel intensities in [0, 1].
// Pixels are stored row-major.
type Image struct {
	W, H int
	Pix  []float64
}

// NewImage allocates a zeroed W×H image.
func NewImage(w, h int) *Image {
	return &Image{W: w, H: h, Pix: make([]float64, w*h)}
}

// At returns the pixel at (x, y). Out-of-bounds reads return 0 so that
// shifted sampling does not need border special-casing.
func (im *Image) At(x, y int) float64 {
	if x < 0 || y < 0 || x >= im.W || y >= im.H {
		return 0
	}
	return im.Pix[y*im.W+x]
}

// Set writes the pixel at (x, y), clamping the value to [0, 1].
// Out-of-bounds writes are ignored.
func (im *Image) Set(x, y int, v float64) {
	if x < 0 || y < 0 || x >= im.W || y >= im.H {
		return
	}
	im.Pix[y*im.W+x] = clamp01(v)
}

// WellFormed reports whether im has positive dimensions and a pixel
// buffer of exactly W×H values — what every pixel loop assumes. A nil
// image is not well formed.
func (im *Image) WellFormed() bool {
	return im != nil && im.W > 0 && im.H > 0 && len(im.Pix) == im.W*im.H
}

// Clone returns a deep copy of the image.
func (im *Image) Clone() *Image {
	out := NewImage(im.W, im.H)
	copy(out.Pix, im.Pix)
	return out
}

// MeanAbsDiff returns the mean absolute pixel difference between a and
// b. It is the cheap frame-difference primitive used by the video
// locality gate. Images of different sizes, or whose pixel buffers differ
// in length, are maximally different.
func MeanAbsDiff(a, b *Image) float64 {
	return MeanAbsDiffBounded(a, b, math.Inf(1))
}

// diffBlock is how many pixels MeanAbsDiffBounded sums between checks
// of the running total against the bound.
const diffBlock = 256

// MeanAbsDiffBounded returns exactly MeanAbsDiff(a, b) when that is
// ≤ bound; otherwise it returns some value that is not ≤ bound,
// possibly after reading only a prefix of the pixels. Either way
// `MeanAbsDiffBounded(a, b, bound) <= bound` decides exactly as
// `MeanAbsDiff(a, b) <= bound` does: pixels are summed in the same
// order, and the running sum of absolute values never decreases (it can
// only turn NaN, which is not ≤ bound either), so a prefix whose mean
// already exceeds the bound proves the total does.
func MeanAbsDiffBounded(a, b *Image, bound float64) float64 {
	if a.W != b.W || a.H != b.H || len(a.Pix) != len(b.Pix) {
		return 1
	}
	n := float64(len(a.Pix))
	pa, pb := a.Pix, b.Pix
	var sum float64
	for len(pa) > diffBlock {
		qb := pb[:diffBlock]
		for i, p := range pa[:diffBlock] {
			sum += math.Abs(p - qb[i])
		}
		if d := sum / n; d > bound {
			return d
		}
		pa, pb = pa[diffBlock:], pb[diffBlock:]
	}
	pb = pb[:len(pa)]
	for i, p := range pa {
		sum += math.Abs(p - pb[i])
	}
	return sum / n
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// ClassSet holds the deterministic prototype image for each object
// class. A ClassSet is immutable after construction and safe for
// concurrent use.
type ClassSet struct {
	w, h       int
	prototypes []*Image
}

// NewClassSet builds numClasses prototype images of size w×h from seed.
// Each prototype is an independent smooth random field, so distinct
// classes are well separated while same-class frames stay close.
func NewClassSet(numClasses, w, h int, seed int64) (*ClassSet, error) {
	if numClasses <= 0 {
		return nil, fmt.Errorf("vision: numClasses must be positive, got %d", numClasses)
	}
	if w <= 0 || h <= 0 {
		return nil, fmt.Errorf("vision: image size must be positive, got %dx%d", w, h)
	}
	rng := rand.New(rand.NewSource(seed))
	cs := &ClassSet{w: w, h: h, prototypes: make([]*Image, numClasses)}
	for c := range cs.prototypes {
		cs.prototypes[c] = smoothField(w, h, rng)
	}
	return cs, nil
}

// NumClasses returns the number of classes in the set.
func (cs *ClassSet) NumClasses() int { return len(cs.prototypes) }

// Size returns the frame dimensions.
func (cs *ClassSet) Size() (w, h int) { return cs.w, cs.h }

// Prototype returns the canonical image for class c. The returned image
// must not be modified; use Clone first.
func (cs *ClassSet) Prototype(c int) (*Image, error) {
	if c < 0 || c >= len(cs.prototypes) {
		return nil, fmt.Errorf("vision: class %d out of range [0,%d)", c, len(cs.prototypes))
	}
	return cs.prototypes[c], nil
}

// smoothField builds a smooth random image: coarse random control grid,
// bilinearly upsampled, so nearby pixels correlate (like natural scenes)
// and downsampled descriptors remain informative.
func smoothField(w, h int, rng *rand.Rand) *Image {
	const grid = 6
	ctrl := make([]float64, (grid+1)*(grid+1))
	for i := range ctrl {
		ctrl[i] = rng.Float64()
	}
	im := NewImage(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			gx := float64(x) / float64(w-1+1) * grid
			gy := float64(y) / float64(h-1+1) * grid
			x0, y0 := int(gx), int(gy)
			fx, fy := gx-float64(x0), gy-float64(y0)
			c00 := ctrl[y0*(grid+1)+x0]
			c10 := ctrl[y0*(grid+1)+x0+1]
			c01 := ctrl[(y0+1)*(grid+1)+x0]
			c11 := ctrl[(y0+1)*(grid+1)+x0+1]
			top := c00*(1-fx) + c10*fx
			bot := c01*(1-fx) + c11*fx
			im.Pix[y*w+x] = top*(1-fy) + bot*fy
		}
	}
	return im
}

// Perturbation controls how far a rendered frame may drift from its
// class prototype. The zero value renders the prototype exactly.
type Perturbation struct {
	// Noise is the standard deviation of per-pixel Gaussian noise.
	Noise float64
	// MaxBrightness is the maximum absolute global intensity shift.
	MaxBrightness float64
	// MaxShift is the maximum translation, in pixels, on each axis.
	MaxShift int
	// OcclusionProb is the probability that a random dark patch
	// covers part of the frame.
	OcclusionProb float64
}

// DefaultPerturbation returns the perturbation profile used by the
// standard workloads: visible but modest frame-to-frame variation.
func DefaultPerturbation() Perturbation {
	return Perturbation{
		Noise:         0.02,
		MaxBrightness: 0.03,
		MaxShift:      1,
		OcclusionProb: 0.05,
	}
}

// HardPerturbation returns an aggressive profile used to stress
// approximate matching (more noise, bigger shifts, frequent occlusion).
func HardPerturbation() Perturbation {
	return Perturbation{
		Noise:         0.08,
		MaxBrightness: 0.12,
		MaxShift:      5,
		OcclusionProb: 0.25,
	}
}

// Render draws one frame of class c under perturbation p, using rng for
// all randomness so that workloads replay deterministically.
func (cs *ClassSet) Render(c int, p Perturbation, rng *rand.Rand) (*Image, error) {
	proto, err := cs.Prototype(c)
	if err != nil {
		return nil, err
	}
	dx, dy := 0, 0
	if p.MaxShift > 0 {
		dx = rng.Intn(2*p.MaxShift+1) - p.MaxShift
		dy = rng.Intn(2*p.MaxShift+1) - p.MaxShift
	}
	brightness := 0.0
	if p.MaxBrightness > 0 {
		brightness = (rng.Float64()*2 - 1) * p.MaxBrightness
	}
	out := NewImage(cs.w, cs.h)
	for y := 0; y < cs.h; y++ {
		for x := 0; x < cs.w; x++ {
			v := proto.At(x+dx, y+dy) + brightness
			if p.Noise > 0 {
				v += rng.NormFloat64() * p.Noise
			}
			out.Pix[y*cs.w+x] = clamp01(v)
		}
	}
	if p.OcclusionProb > 0 && rng.Float64() < p.OcclusionProb {
		occlude(out, rng)
	}
	return out, nil
}

// occlude darkens a random rectangular patch covering up to ~1/16 of the
// frame, emulating a hand or passer-by entering the field of view.
func occlude(im *Image, rng *rand.Rand) {
	pw := im.W/8 + rng.Intn(im.W/8+1)
	ph := im.H/8 + rng.Intn(im.H/8+1)
	px := rng.Intn(im.W - pw + 1)
	py := rng.Intn(im.H - ph + 1)
	for y := py; y < py+ph; y++ {
		for x := px; x < px+pw; x++ {
			im.Pix[y*im.W+x] *= 0.2
		}
	}
}
