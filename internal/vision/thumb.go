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
// and sum of squares the frame guard needs. Both kernels compute the
// same bits (BlockSums pins the block sums' order; the squares add up
// per segment from zero, then per row); a frame whose eight segments are
// six pixels wide — the 48-px analysis resolution — takes the
// straight-line one.
func (th *Thumb) fill(im *Image) (sum, sumSq float64) {
	if im.W == 6*ThumbGrid {
		return th.fillWith(im, sumBlocks6)
	}
	return th.fillWith(im, sumBlocks)
}

// fillWith runs kernel over im and derives the pixel sum and rms from
// what it wrote.
func (th *Thumb) fillWith(im *Image, kernel func(*[ThumbGrid * ThumbGrid]float64, *Image) float64) (sum, sumSq float64) {
	th.w, th.h = im.W, im.H
	sumSq = kernel(&th.cells, im)
	for _, c := range th.cells {
		sum += c
	}
	th.rms = math.Sqrt(sumSq / float64(im.W*im.H))
	return sum, sumSq
}

// blockRows returns the first row of each block row, and the end of the
// last.
func blockRows(h int) (yb [ThumbGrid + 1]int) {
	for k := range yb {
		yb[k] = k * h / ThumbGrid
	}
	return yb
}

// sumBlocks writes a well-formed frame of any width's block sums into
// cells and returns its sum of squares. A block's sum is one chain
// across its rows, but the eight blocks of a block row are independent
// chains, and the squares accumulate per segment, so no chain is as long
// as the frame.
func sumBlocks(cells *[ThumbGrid * ThumbGrid]float64, im *Image) (sumSq float64) {
	w, yb := im.W, blockRows(im.H)
	var xb [ThumbGrid + 1]int
	for k := range xb {
		// Frames narrower than the grid leave some blocks empty.
		xb[k] = k * w / ThumbGrid
	}
	for cy := 0; cy < ThumbGrid; cy++ {
		// A block row accumulates into a local array: the compiler cannot
		// prove cells and im.Pix distinct, and would reload and store the
		// cell on every segment.
		var row8 [ThumbGrid]float64
		for y := yb[cy]; y < yb[cy+1]; y++ {
			row := im.Pix[y*w : (y+1)*w]
			var rowSq float64
			for cx := range row8 {
				c, q := row8[cx], 0.0
				for _, p := range row[xb[cx]:xb[cx+1]] {
					c += p
					q += p * p
				}
				row8[cx] = c
				rowSq += q
			}
			sumSq += rowSq
		}
		copy(cells[cy*ThumbGrid:], row8[:])
	}
	return sumSq
}

// sumBlocks6 is sumBlocks for a frame exactly 48 pixels wide, so that
// every segment is six pixels. sumBlocks spends most of such a frame on
// loop control: 384 six-iteration loops, each loading its block's sum
// from memory and storing it back. Here a block row's eight sums stay in
// locals and a row is straight-line code with constant indices. Go
// evaluates a+b+c as (a+b)+c, so c0 + r[0] + … + r[5] is sumBlocks'
// chain, and sq6 its per-segment sum of squares from zero.
func sumBlocks6(cells *[ThumbGrid * ThumbGrid]float64, im *Image) (sumSq float64) {
	const w = 6 * ThumbGrid
	yb := blockRows(im.H)
	for cy := 0; cy < ThumbGrid; cy++ {
		var c0, c1, c2, c3, c4, c5, c6, c7 float64
		for y := yb[cy]; y < yb[cy+1]; y++ {
			r := (*[w]float64)(im.Pix[y*w:])
			c0 = c0 + r[0] + r[1] + r[2] + r[3] + r[4] + r[5]
			c1 = c1 + r[6] + r[7] + r[8] + r[9] + r[10] + r[11]
			c2 = c2 + r[12] + r[13] + r[14] + r[15] + r[16] + r[17]
			c3 = c3 + r[18] + r[19] + r[20] + r[21] + r[22] + r[23]
			c4 = c4 + r[24] + r[25] + r[26] + r[27] + r[28] + r[29]
			c5 = c5 + r[30] + r[31] + r[32] + r[33] + r[34] + r[35]
			c6 = c6 + r[36] + r[37] + r[38] + r[39] + r[40] + r[41]
			c7 = c7 + r[42] + r[43] + r[44] + r[45] + r[46] + r[47]
			sumSq += sq6(r[0:6]) + sq6(r[6:12]) + sq6(r[12:18]) + sq6(r[18:24]) +
				sq6(r[24:30]) + sq6(r[30:36]) + sq6(r[36:42]) + sq6(r[42:48])
		}
		cells[cy*ThumbGrid+0] = c0
		cells[cy*ThumbGrid+1] = c1
		cells[cy*ThumbGrid+2] = c2
		cells[cy*ThumbGrid+3] = c3
		cells[cy*ThumbGrid+4] = c4
		cells[cy*ThumbGrid+5] = c5
		cells[cy*ThumbGrid+6] = c6
		cells[cy*ThumbGrid+7] = c7
	}
	return sumSq
}

// sq6 is the sum of squares of a six-pixel segment, one chain from
// zero (0 + p*p is p*p: a square is never −0).
func sq6(s []float64) float64 {
	s = s[:6]
	return s[0]*s[0] + s[1]*s[1] + s[2]*s[2] + s[3]*s[3] + s[4]*s[4] + s[5]*s[5]
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
