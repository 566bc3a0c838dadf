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
	// ExtractInto computes im's feature vector into dst's backing
	// array (which may be nil). The returned slice has length Dim()
	// and aliases dst when its capacity suffices, so the per-frame key
	// computation allocates nothing at steady state.
	ExtractInto(im *vision.Image, dst Vector) (Vector, error)
	// Dim returns the dimensionality of the vectors produced.
	Dim() int
	// Name returns a short identifier for reports.
	Name() string
}

// IntoExtractor is another name for Extractor, kept for callers that
// assert to it.
type IntoExtractor = Extractor

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
	return e.ExtractInto(im, dst)
}

// sizedBuf ensures dst has length n, reallocating only when capacity
// falls short.
func sizedBuf(dst Vector, n int) Vector {
	if cap(dst) < n {
		return make(Vector, n)
	}
	return dst[:n]
}

// GridHistogram is the frame descriptor: a Cols×Rows grid of mean
// luminances (translation-tolerant at cell granularity, and cheap)
// followed by a Bins-bin intensity histogram (fully
// translation-invariant), scaled to unit norm so that LSH hyperplane
// signatures behave uniformly. The cache keys frames with 8×8 + 16 bins
// (DefaultExtractor), the simulated DNN with 16×16 + 32.
type GridHistogram struct {
	Cols, Rows, Bins int
}

var _ ThumbExtractor = GridHistogram{}

// Dim returns the grid's cells plus the histogram's bins.
func (d GridHistogram) Dim() int { return d.Cols*d.Rows + d.Bins }

// Name returns "grid<cols>x<rows>+hist<bins>".
func (d GridHistogram) Name() string {
	return fmt.Sprintf("grid%dx%d+hist%d", d.Cols, d.Rows, d.Bins)
}

// Extract computes the descriptor of im.
func (d GridHistogram) Extract(im *vision.Image) (Vector, error) {
	return d.ExtractInto(im, nil)
}

// thumbShaped reports whether the grid is a thumbnail's partition.
func (d GridHistogram) thumbShaped() bool {
	return d.Cols == vision.ThumbGrid && d.Rows == vision.ThumbGrid
}

// ExtractInto computes the descriptor into dst. A thumbnail-shaped grid
// summarises the frame into a thumbnail first and reads its cells off
// it, so a caller with and without a thumbnail get the same bits from
// the same code.
func (d GridHistogram) ExtractInto(im *vision.Image, dst Vector) (Vector, error) {
	var th vision.Thumb
	if d.thumbShaped() {
		th.Fill(im)
	}
	return d.ExtractThumbInto(im, &th, dst)
}

// ExtractThumbInto is ExtractInto reading the grid off th's block sums
// when th covers im and the grid is th's partition; any other grid or
// thumbnail sums the cells from the pixels (gridCells), with the same
// integer sums. See ThumbExtractor.
func (d GridHistogram) ExtractThumbInto(im *vision.Image, th *vision.Thumb, dst Vector) (Vector, error) {
	if err := d.validate(im); err != nil {
		// Name the grid that refused the frame, as the frame path's
		// error transcripts (core's goldens) record it.
		return nil, fmt.Errorf("grid%dx%d: %w", d.Cols, d.Rows, err)
	}
	out := sizedBuf(dst, d.Dim())
	grid := out[:d.Cols*d.Rows]
	if d.thumbShaped() && th.Covers(im) {
		const n = vision.ThumbGrid
		for i, sum := range th.BlockSums() {
			gx, gy := i%n, i/n
			cw := (gx+1)*im.W/n - gx*im.W/n
			ch := (gy+1)*im.H/n - gy*im.H/n
			grid[i] = cellMean(sum, ch*cw)
		}
	} else {
		gridCells(grid, im, d.Cols, d.Rows)
	}
	histogram(out[len(grid):], im.Pix)
	out.Normalize()
	return out, nil
}

func (d GridHistogram) validate(im *vision.Image) error {
	if d.Cols <= 0 || d.Rows <= 0 || d.Bins <= 0 {
		return fmt.Errorf("feature: grid %dx%d and %d bins must be positive", d.Cols, d.Rows, d.Bins)
	}
	if im.W < d.Cols || im.H < d.Rows {
		return fmt.Errorf("feature: image %dx%d smaller than grid %dx%d",
			im.W, im.H, d.Cols, d.Rows)
	}
	if len(im.Pix) != im.W*im.H {
		return fmt.Errorf("feature: image %dx%d has %d pixels", im.W, im.H, len(im.Pix))
	}
	return nil
}

// gridCells writes the mean luminance of each of im's cols×rows cells
// into out: the cell's integer pixel sum, divided once (cellMean). im is
// at least cols×rows and well formed.
func gridCells(out Vector, im *vision.Image, cols, rows int) {
	for gy := 0; gy < rows; gy++ {
		y0 := gy * im.H / rows
		y1 := (gy + 1) * im.H / rows
		for gx := 0; gx < cols; gx++ {
			x0 := gx * im.W / cols
			x1 := (gx + 1) * im.W / cols
			var sum int
			for y := y0; y < y1; y++ {
				row := im.Pix[y*im.W : y*im.W+im.W]
				for x := x0; x < x1; x++ {
					sum += int(row[x])
				}
			}
			out[gy*cols+gx] = cellMean(sum, (y1-y0)*(x1-x0))
		}
	}
}

// cellMean is the mean intensity of area pixels whose levels sum to sum.
func cellMean(sum, area int) float64 {
	return float64(sum) / float64(vision.MaxLevel*area)
}

// histogram writes the normalized intensity histogram of pix, which is
// not empty, into out: level k counts into bin ⌊k·bins/255⌋, white into
// the last (countBins), and each count is divided by the number of
// pixels.
func histogram(out Vector, pix []uint8) {
	countBins(out, pix)
	n := float64(len(pix))
	for i := range out {
		out[i] /= n
	}
}

// DefaultExtractor returns the extractor used by the standard pipeline:
// an 8×8 luminance grid concatenated with a 16-bin histogram, unit
// normalized (80 dimensions).
func DefaultExtractor() Extractor {
	return GridHistogram{Cols: 8, Rows: 8, Bins: 16}
}
