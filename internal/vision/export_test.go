package vision

// Set writes intensity v to the pixel at (x, y), quantized as Render
// quantizes. Out-of-bounds writes are ignored. Only tests draw single
// pixels.
func (im *Image) Set(x, y int, v float64) {
	if x < 0 || y < 0 || x >= im.W || y >= im.H {
		return
	}
	im.Pix[y*im.W+x] = quantize(v)
}

// The frame-kernel fuzz test lives in package vision_test, beside the
// histogram it checks; these hand it the unexported kernels.
var (
	FillThumb   = (*Thumb).fill
	SquareBound = (*Thumb).squareBound
	SumSquares  = sumSquares
	LowerBound  = (*Thumb).lowerBound
)

// ThumbOfCells returns a w×h frame's thumbnail holding cells, which no
// frame need have summed to: the thumbnail bound's kernels must agree on
// any cells, extreme ones included.
func ThumbOfCells(w, h int, cells [ThumbGrid * ThumbGrid]int) Thumb {
	return Thumb{w: w, h: h, cells: cells}
}
