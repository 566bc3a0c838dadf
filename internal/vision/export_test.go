package vision

// The frame-kernel fuzz test lives in package vision_test, beside the
// histogram it checks; these hand it the unexported kernels.
var (
	FillThumb   = (*Thumb).fill
	SquareBound = (*Thumb).squareBound
	SumSquares  = sumSquares
)
