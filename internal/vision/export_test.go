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
)
