package feature

import (
	"fmt"

	"approxcache/internal/vision"
)

// Extractor maps a frame to a feature vector. Implementations must be
// deterministic and safe for concurrent use.
type Extractor interface {
	// Extract computes the feature vector of im.
	Extract(im *vision.Image) (Vector, error)
	// Dim returns the dimensionality of vectors produced by Extract.
	Dim() int
	// Name returns a short identifier for reports.
	Name() string
}

// IntoExtractor is implemented by extractors that can write into a
// caller-provided buffer, so the per-frame key computation allocates
// nothing at steady state.
type IntoExtractor interface {
	Extractor
	// ExtractInto computes im's feature vector into dst's backing
	// array (which may be nil). The returned slice has length Dim()
	// and aliases dst when its capacity suffices.
	ExtractInto(im *vision.Image, dst Vector) (Vector, error)
}

// ExtractInto runs e's buffer-reusing path when it has one, falling
// back to Extract plus a copy into dst otherwise.
func ExtractInto(e Extractor, im *vision.Image, dst Vector) (Vector, error) {
	if ie, ok := e.(IntoExtractor); ok {
		return ie.ExtractInto(im, dst)
	}
	v, err := e.Extract(im)
	if err != nil {
		return nil, err
	}
	return append(dst[:0], v...), nil
}

// ThumbExtractor is implemented by extractors that can build (part of)
// the descriptor from a frame's block-sum thumbnail instead of adding
// the pixels up again — the engine already holds one, from the frame
// guard's pass.
type ThumbExtractor interface {
	Extractor
	// ExtractThumbInto is ExtractInto for a caller holding th, im's
	// thumbnail (vision.CheckFrameThumb or Thumb.Fill on this very
	// frame). The result is bit-identical to ExtractInto's; an empty or
	// differently-sized thumbnail is safe, only slower.
	ExtractThumbInto(im *vision.Image, th *vision.Thumb, dst Vector) (Vector, error)
}

// ExtractThumbInto runs e's thumbnail path when it has one, falling back
// to ExtractInto otherwise.
func ExtractThumbInto(e Extractor, im *vision.Image, th *vision.Thumb, dst Vector) (Vector, error) {
	if te, ok := e.(ThumbExtractor); ok {
		return te.ExtractThumbInto(im, th, dst)
	}
	return ExtractInto(e, im, dst)
}

// sizedBuf ensures dst has length n, reallocating only when capacity
// falls short.
func sizedBuf(dst Vector, n int) Vector {
	if cap(dst) < n {
		return make(Vector, n)
	}
	return dst[:n]
}

// GridExtractor downsamples the frame to a Cols×Rows grid of mean
// luminances. It is the workhorse descriptor: translation-tolerant at
// cell granularity and cheap to compute.
type GridExtractor struct {
	Cols, Rows int
}

var _ IntoExtractor = GridExtractor{}

// Dim returns Cols*Rows.
func (g GridExtractor) Dim() int { return g.Cols * g.Rows }

// Name returns "grid<cols>x<rows>".
func (g GridExtractor) Name() string { return fmt.Sprintf("grid%dx%d", g.Cols, g.Rows) }

func (g GridExtractor) validate(im *vision.Image) error {
	if g.Cols <= 0 || g.Rows <= 0 {
		return fmt.Errorf("feature: grid must be positive, got %dx%d", g.Cols, g.Rows)
	}
	if im.W < g.Cols || im.H < g.Rows {
		return fmt.Errorf("feature: image %dx%d smaller than grid %dx%d",
			im.W, im.H, g.Cols, g.Rows)
	}
	if len(im.Pix) != im.W*im.H {
		return fmt.Errorf("feature: image %dx%d has %d pixels", im.W, im.H, len(im.Pix))
	}
	return nil
}

// Extract computes per-cell mean luminance.
func (g GridExtractor) Extract(im *vision.Image) (Vector, error) {
	return g.ExtractInto(im, nil)
}

// ExtractInto computes per-cell mean luminance into dst: each cell's
// integer pixel sum, divided once (cellMean). CombinedExtractor's grid
// half divides vision.Thumb's block sums (for 8×8), so the two agree.
func (g GridExtractor) ExtractInto(im *vision.Image, dst Vector) (Vector, error) {
	if err := g.validate(im); err != nil {
		return nil, err
	}
	out := sizedBuf(dst, g.Cols*g.Rows)
	for gy := 0; gy < g.Rows; gy++ {
		y0 := gy * im.H / g.Rows
		y1 := (gy + 1) * im.H / g.Rows
		for gx := 0; gx < g.Cols; gx++ {
			x0 := gx * im.W / g.Cols
			x1 := (gx + 1) * im.W / g.Cols
			var sum int
			for y := y0; y < y1; y++ {
				row := im.Pix[y*im.W : y*im.W+im.W]
				for x := x0; x < x1; x++ {
					sum += int(row[x])
				}
			}
			out[gy*g.Cols+gx] = cellMean(sum, (y1-y0)*(x1-x0))
		}
	}
	return out, nil
}

// cellMean is the mean intensity of area pixels whose levels sum to sum.
func cellMean(sum, area int) float64 {
	return float64(sum) / float64(vision.MaxLevel*area)
}

// HistogramExtractor computes a normalized intensity histogram. It is
// fully translation-invariant and complements the grid descriptor.
type HistogramExtractor struct {
	Bins int
}

var _ IntoExtractor = HistogramExtractor{}

// Dim returns the number of bins.
func (h HistogramExtractor) Dim() int { return h.Bins }

// Name returns "hist<bins>".
func (h HistogramExtractor) Name() string { return fmt.Sprintf("hist%d", h.Bins) }

// Extract computes the intensity histogram, normalized to sum to 1.
func (h HistogramExtractor) Extract(im *vision.Image) (Vector, error) {
	return h.ExtractInto(im, nil)
}

// ExtractInto computes the histogram into dst: level k counts into bin
// ⌊k·bins/255⌋, white into the last (countBins), and each count is
// divided by the number of pixels.
func (h HistogramExtractor) ExtractInto(im *vision.Image, dst Vector) (Vector, error) {
	if h.Bins <= 0 {
		return nil, fmt.Errorf("feature: bins must be positive, got %d", h.Bins)
	}
	if len(im.Pix) == 0 {
		return nil, fmt.Errorf("feature: empty image")
	}
	out := sizedBuf(dst, h.Bins)
	countBins(out, im.Pix)
	n := float64(len(im.Pix))
	for i := range out {
		out[i] /= n
	}
	return out, nil
}

// CombinedExtractor concatenates the vectors of several extractors,
// optionally normalizing the result to unit norm so that LSH hyperplane
// signatures behave uniformly.
type CombinedExtractor struct {
	parts     []Extractor
	normalize bool
	dim       int
	name      string
	// grid is set when parts is exactly {grid, hist}, the common pipeline
	// shape: its grid half can be copied from a thumbnail that already
	// holds the cell sums.
	grid *GridExtractor
}

var (
	_ IntoExtractor  = (*CombinedExtractor)(nil)
	_ ThumbExtractor = (*CombinedExtractor)(nil)
)

// NewCombinedExtractor concatenates parts. normalize selects unit-norm
// output.
func NewCombinedExtractor(normalize bool, parts ...Extractor) (*CombinedExtractor, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("feature: combined extractor needs at least one part")
	}
	dim := 0
	name := "combined("
	for i, p := range parts {
		dim += p.Dim()
		if i > 0 {
			name += "+"
		}
		name += p.Name()
	}
	name += ")"
	c := &CombinedExtractor{parts: parts, normalize: normalize, dim: dim, name: name}
	if len(parts) == 2 {
		if g, ok := parts[0].(GridExtractor); ok {
			if _, ok := parts[1].(HistogramExtractor); ok {
				c.grid = &g
			}
		}
	}
	return c, nil
}

// Dim returns the total dimensionality.
func (c *CombinedExtractor) Dim() int { return c.dim }

// Name returns a description of the concatenated parts.
func (c *CombinedExtractor) Name() string { return c.name }

// Extract concatenates the part vectors.
func (c *CombinedExtractor) Extract(im *vision.Image) (Vector, error) {
	return c.ExtractInto(im, nil)
}

// thumbShaped reports whether the grid half is a thumbnail's partition.
func (c *CombinedExtractor) thumbShaped() bool {
	return c.grid != nil && c.grid.Cols == vision.ThumbGrid && c.grid.Rows == vision.ThumbGrid
}

// ExtractInto concatenates the part vectors into dst. The default shape
// (8×8 grid + histogram) summarises the frame into a thumbnail and takes
// ExtractThumbInto's path, so a caller with and without a thumbnail get
// the same bits from the same code.
func (c *CombinedExtractor) ExtractInto(im *vision.Image, dst Vector) (Vector, error) {
	var th vision.Thumb
	if c.thumbShaped() {
		th.Fill(im)
	}
	return c.extract(im, &th, dst)
}

// ExtractThumbInto is ExtractInto reading the grid half off th; see
// ThumbExtractor. Any other shape, or a thumbnail that is not of a frame
// this size, takes ExtractInto.
func (c *CombinedExtractor) ExtractThumbInto(im *vision.Image, th *vision.Thumb, dst Vector) (Vector, error) {
	if !c.thumbShaped() || !th.Covers(im) {
		return c.ExtractInto(im, dst)
	}
	return c.extract(im, th, dst)
}

// extract takes the grid half of the {grid, hist} shape from th's block
// sums when th covers im, and delegates every other part to its
// buffer-reusing path, writing directly into dst's sub-ranges.
func (c *CombinedExtractor) extract(im *vision.Image, th *vision.Thumb, dst Vector) (Vector, error) {
	out := sizedBuf(dst, c.dim)
	parts, off := c.parts, 0
	// A covering thumbnail only arrives when the grid is the thumbnail's
	// own (thumbShaped).
	if g := c.grid; g != nil && th.Covers(im) {
		if err := g.validate(im); err != nil {
			return nil, err
		}
		const n = vision.ThumbGrid
		for i, sum := range th.BlockSums() {
			gx, gy := i%n, i/n
			cw := (gx+1)*im.W/n - gx*im.W/n
			ch := (gy+1)*im.H/n - gy*im.H/n
			out[i] = cellMean(sum, ch*cw)
		}
		parts, off = parts[1:], g.Dim()
	}
	for _, p := range parts {
		pd := p.Dim()
		sub, err := ExtractInto(p, im, out[off:off:off+pd])
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.Name(), err)
		}
		// A part may return its own storage (foreign extractor
		// with an oversized result); fold it into place.
		if &sub[0] != &out[off] {
			copy(out[off:off+pd], sub)
		}
		off += pd
	}
	if c.normalize {
		out.Normalize()
	}
	return out, nil
}

// DefaultExtractor returns the extractor used by the standard pipeline:
// an 8×8 luminance grid concatenated with a 16-bin histogram, unit
// normalized (80 dimensions).
func DefaultExtractor() Extractor {
	grid := GridExtractor{Cols: 8, Rows: 8}
	hist := HistogramExtractor{Bins: 16}
	c, err := NewCombinedExtractor(true, grid, hist)
	if err != nil {
		// Unreachable: both parts are statically valid.
		panic(err)
	}
	return c
}
