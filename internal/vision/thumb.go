package vision

import "approxcache/internal/cpu"

// ThumbGrid is the side of the block-sum thumbnail: a frame is cut into
// ThumbGrid×ThumbGrid blocks whatever its size.
const ThumbGrid = 8

// Thumb is a frame's block-sum thumbnail: the pixel sums of an 8×8
// partition of the frame, taken in one pass over the pixels. Two
// thumbnails of same-sized frames bound the frames' MeanAbsDiff from
// below (Farther), which lets the video gate discard a keyframe in 64
// operations instead of one per pixel, and the sums are the 8×8 grid
// descriptor's cell sums (BlockSums), so the extractor need not add the
// pixels up again; integer sums make both exact. The zero value is the
// empty thumbnail: it proves nothing, so every comparison against it
// falls through to the exact pixel diff.
type Thumb struct {
	w, h  int
	cells [ThumbGrid * ThumbGrid]int
}

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
// y) — the partition of the 8×8 descriptor grid's cells, so the sums
// are that grid's cell sums.
func (th *Thumb) BlockSums() *[ThumbGrid * ThumbGrid]int { return &th.cells }

// fill is the one pass over a well-formed frame that every per-frame
// consumer shares: it writes the block sums and returns the pixel sum.
// A frame whose eight segments are six pixels wide — the 48-px analysis
// resolution — takes sumBlocks6, the lane kernel on an AVX2 host.
func (th *Thumb) fill(im *Image) (sum int) {
	th.w, th.h = im.W, im.H
	if im.W == 6*ThumbGrid {
		sumBlocks6(&th.cells, im)
	} else {
		sumBlocks(&th.cells, im)
	}
	for _, c := range th.cells {
		sum += c
	}
	return sum
}

// blockEdges returns where each block starts along a side of n pixels,
// and where the last one ends: block k spans [k·n/8, (k+1)·n/8).
func blockEdges(n int) (edges [ThumbGrid + 1]int) {
	for k := range edges {
		edges[k] = k * n / ThumbGrid
	}
	return edges
}

// sumBlocks writes a well-formed frame's block sums into cells.
func sumBlocks(cells *[ThumbGrid * ThumbGrid]int, im *Image) {
	// Frames narrower than the grid leave some blocks empty.
	w, xb, yb := im.W, blockEdges(im.W), blockEdges(im.H)
	for cy := 0; cy < ThumbGrid; cy++ {
		// A block row accumulates into a local array: the compiler cannot
		// prove cells and im.Pix distinct, and would reload and store the
		// cell on every segment.
		var row8 [ThumbGrid]int
		for y := yb[cy]; y < yb[cy+1]; y++ {
			row := im.Pix[y*w : (y+1)*w]
			for cx := range row8 {
				c := row8[cx]
				for _, p := range row[xb[cx]:xb[cx+1]] {
					c += int(p)
				}
				row8[cx] = c
			}
		}
		copy(cells[cy*ThumbGrid:], row8[:])
	}
}

// sumBlocks6 is sumBlocks for a frame exactly 48 pixels wide, so that
// every segment is six pixels. On a host with AVX2 each block row's
// rows go to the assembly kernel (sumRows6AVX2: two VPSADBW per row).
// Elsewhere — an arm64 phone among them — and as the kernel's
// reference, a block row's eight sums stay in locals and a row is
// straight-line code with constant indices: sumBlocks would spend most
// of such a frame on loop control, 384 six-iteration loops.
func sumBlocks6(cells *[ThumbGrid * ThumbGrid]int, im *Image) {
	const w = 6 * ThumbGrid
	yb := blockEdges(im.H)
	if cpu.HasAVX2 {
		for cy := 0; cy < ThumbGrid; cy++ {
			sumRows6AVX2(im.Pix[yb[cy]*w:yb[cy+1]*w], (*[ThumbGrid]int)(cells[cy*ThumbGrid:]))
		}
		return
	}
	for cy := 0; cy < ThumbGrid; cy++ {
		var c0, c1, c2, c3, c4, c5, c6, c7 int
		for y := yb[cy]; y < yb[cy+1]; y++ {
			r := (*[w]uint8)(im.Pix[y*w:])
			c0 += int(r[0]) + int(r[1]) + int(r[2]) + int(r[3]) + int(r[4]) + int(r[5])
			c1 += int(r[6]) + int(r[7]) + int(r[8]) + int(r[9]) + int(r[10]) + int(r[11])
			c2 += int(r[12]) + int(r[13]) + int(r[14]) + int(r[15]) + int(r[16]) + int(r[17])
			c3 += int(r[18]) + int(r[19]) + int(r[20]) + int(r[21]) + int(r[22]) + int(r[23])
			c4 += int(r[24]) + int(r[25]) + int(r[26]) + int(r[27]) + int(r[28]) + int(r[29])
			c5 += int(r[30]) + int(r[31]) + int(r[32]) + int(r[33]) + int(r[34]) + int(r[35])
			c6 += int(r[36]) + int(r[37]) + int(r[38]) + int(r[39]) + int(r[40]) + int(r[41])
			c7 += int(r[42]) + int(r[43]) + int(r[44]) + int(r[45]) + int(r[46]) + int(r[47])
		}
		*(*[ThumbGrid]int)(cells[cy*ThumbGrid:]) = [ThumbGrid]int{c0, c1, c2, c3, c4, c5, c6, c7}
	}
}

// squareBound returns a lower bound on the frame's sum of squares from
// the block sums: a block of m pixels summing to S has Σp² ≥ S²/m
// (Cauchy–Schwarz). Blocks have at most four shapes (⌊W/8⌋ or one more
// wide, ⌊H/8⌋ or one more tall), one when 8 divides both sides, so S²
// adds up per shape. Blocks past 2²⁰ pixels give 0: no S² overflows.
func (th *Thumb) squareBound() int {
	qw, qh := th.w/ThumbGrid, th.h/ThumbGrid
	if (qw+1)*(qh+1) > 1<<20 {
		return 0
	}
	var s int
	if th.w%ThumbGrid == 0 && th.h%ThumbGrid == 0 {
		for _, c := range th.cells {
			s += c * c
		}
		return s / (qw * qh)
	}
	xb, yb := blockEdges(th.w), blockEdges(th.h)
	var byShape [2][2]int
	for i, c := range th.cells {
		cx, cy := i%ThumbGrid, i/ThumbGrid
		byShape[xb[cx+1]-xb[cx]-qw][yb[cy+1]-yb[cy]-qh] += c * c
	}
	for i, row := range byShape {
		for j, sq := range row {
			if sq > 0 { // a shape with no pixels has no sum
				s += sq / ((qw + i) * (qh + j))
			}
		}
	}
	return s
}

// lowerBound returns Σ_blocks |S_t − S_o|, which never exceeds the sum
// of |a−b| over the two summarised frames' pixels: within a block,
// |Σ(a−b)| ≤ Σ|a−b| (triangle inequality), and the blocks partition the
// pixels.
func (th *Thumb) lowerBound(o *Thumb) int {
	var s int
	for i, c := range th.cells {
		s += max(c-o.cells[i], o.cells[i]-c)
	}
	return s
}

// Farther reports whether the two thumbnails alone prove that the
// frames they summarise have MeanAbsDiff > bound. It never claims so
// wrongly — empty thumbnails and differently sized frames report false,
// and the bound's mean is taken as MeanAbsDiff takes the exact sum's,
// which it never exceeds — so skipping the exact diff on true cannot
// change a `MeanAbsDiff <= bound` decision.
func (th *Thumb) Farther(o *Thumb, bound float64) bool {
	if th.w != o.w || th.h != o.h || th.w == 0 {
		return false
	}
	return meanDiff(th.lowerBound(o), th.w*th.h) > bound
}
