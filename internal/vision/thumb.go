package vision

import "math"

// ThumbGrid is the side of the block-sum thumbnail: a frame is cut into
// ThumbGrid×ThumbGrid blocks whatever its size.
const ThumbGrid = 8

// Thumb is a frame's block-sum thumbnail: the pixel sums of an 8×8
// partition of the frame, taken in one pass over the pixels. Two
// thumbnails of same-sized frames bound the frames' MeanAbsDiff from
// below (Farther), which lets the video gate discard a keyframe in 64
// operations instead of one per pixel, and the sums are the 8×8 grid
// descriptor's cell sums (BlockSums), so the extractor need not add the
// pixels up again. The zero value is the empty thumbnail: it proves
// nothing, so every comparison against it falls through to the exact
// pixel diff.
type Thumb struct {
	w, h  int
	cells [ThumbGrid * ThumbGrid]float64
	// rms is the frame's root-mean-square pixel value. It bounds the
	// mean absolute pixel from above and scales Farther's float slack,
	// so the bound stays sound for pixels far outside [0, 1]; +Inf or
	// NaN (overflowing or non-finite pixels) disables the bound.
	rms float64
}

// thumbSlack is the absolute float slack, per unit of magnitude, that
// Farther adds before trusting the thumbnail bound. The bound is exact
// in real arithmetic; in float64 the block sums, their 64-term total
// and MeanAbsDiff's own n-term sum each carry a relative rounding error
// of at most (terms)·2⁻⁵³, about 3e-13 in all for a 48×48 frame. 1e-9
// (plus a per-pixel term that keeps the margin for multi-megapixel
// frames) is thousands of times that, and still far below any
// difference between two real frames.
const (
	thumbSlack         = 1e-9
	thumbSlackPerPixel = 2.5e-16
)

// Fill summarises im into th. A frame without a well-formed pixel
// buffer leaves th empty.
func (th *Thumb) Fill(im *Image) {
	if !im.WellFormed() {
		*th = Thumb{}
		return
	}
	th.fill(im)
}

// Covers reports whether th is a non-empty thumbnail of a frame with
// im's dimensions. It cannot tell whose pixels were summed: handing a
// consumer the thumbnail of this very frame is the caller's job.
func (th *Thumb) Covers(im *Image) bool {
	return th.w != 0 && im != nil && th.w == im.W && th.h == im.H
}

// BlockSums returns the block sums, row-major; the caller must not
// modify them. Block (cx, cy) holds the pixels with
// cx*W/ThumbGrid ≤ x < (cx+1)*W/ThumbGrid (integer division, likewise in
// y), added in row-major order in one chain starting from zero — the
// partition and the order of feature.GridExtractor{8, 8}'s per-cell
// summation, so the sums are that grid's cell sums bit for bit.
func (th *Thumb) BlockSums() *[ThumbGrid * ThumbGrid]float64 { return &th.cells }

// fill is the one pass over a well-formed frame that every per-frame
// consumer shares: it writes the block sums and returns the pixel sum
// and sum of squares the frame guard needs. A block's sum is one chain
// across its rows (BlockSums pins the order), but the eight blocks of a
// block row are independent chains, and the squares accumulate per
// segment, so no chain is as long as the frame.
func (th *Thumb) fill(im *Image) (sum, sumSq float64) {
	w, h := im.W, im.H
	var xb, yb [ThumbGrid + 1]int
	for k := range xb {
		// Frames narrower than the grid leave some blocks empty.
		xb[k] = k * w / ThumbGrid
		yb[k] = k * h / ThumbGrid
	}
	th.w, th.h = w, h
	for cy := 0; cy < ThumbGrid; cy++ {
		// A block row accumulates into a local array: the compiler cannot
		// prove th.cells and im.Pix distinct, and would reload and store
		// the cell on every segment.
		var cells [ThumbGrid]float64
		for y := yb[cy]; y < yb[cy+1]; y++ {
			row := im.Pix[y*w : (y+1)*w]
			var rowSq float64
			for cx := range cells {
				c, q := cells[cx], 0.0
				for _, p := range row[xb[cx]:xb[cx+1]] {
					c += p
					q += p * p
				}
				cells[cx] = c
				rowSq += q
			}
			sumSq += rowSq
		}
		copy(th.cells[cy*ThumbGrid:], cells[:])
	}
	for _, c := range th.cells {
		sum += c
	}
	th.rms = math.Sqrt(sumSq / float64(w*h))
	return sum, sumSq
}

// lowerBound returns Σ_blocks |S_t − S_o| / n, which in real arithmetic
// never exceeds the MeanAbsDiff of the two summarised frames: within a
// block, |Σ(a−b)| ≤ Σ|a−b| (triangle inequality), and the blocks
// partition the pixels.
func (th *Thumb) lowerBound(o *Thumb) float64 {
	var s float64
	for i, c := range th.cells {
		s += math.Abs(c - o.cells[i])
	}
	return s / float64(th.w*th.h)
}

// Farther reports whether the two thumbnails alone prove that the
// frames they summarise have MeanAbsDiff > bound. It never claims so
// wrongly — not for empty thumbnails, differently sized frames or
// non-finite sums (all report false), and not by float rounding
// (thumbSlack) — so skipping the exact diff on true cannot change a
// `MeanAbsDiff <= bound` decision.
func (th *Thumb) Farther(o *Thumb, bound float64) bool {
	if th.w != o.w || th.h != o.h || th.w == 0 {
		return false
	}
	slack := (thumbSlack + thumbSlackPerPixel*float64(th.w*th.h)) *
		(1 + math.Abs(bound) + th.rms + o.rms)
	// NaN on either side compares false: no claim.
	return th.lowerBound(o) > bound+slack
}
