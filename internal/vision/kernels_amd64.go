package vision

// absDiffSumAVX2 is Σ|a[i]−b[i]| in assembly (kernels_amd64.s): one
// VPSADBW per 32 pixels. len(a) is a positive multiple of 32 and b is at
// least as long.
//
//go:noescape
func absDiffSumAVX2(a, b []uint8) int

// sumRows6AVX2 writes into row8 the sums of the eight six-pixel
// segments of rows, whole 48-pixel rows, in assembly (kernels_amd64.s):
// two VPSADBW per row. len(rows) is a multiple of 48; no rows gives
// zeros.
//
//go:noescape
func sumRows6AVX2(rows []uint8, row8 *[ThumbGrid]int)

// lowerBoundAVX2 is Σ|a[i]−b[i]| over two thumbnails' cells, in
// assembly (kernels_amd64.s): four cells per VPSUBQ.
//
//go:noescape
func lowerBoundAVX2(a, b *[ThumbGrid * ThumbGrid]int) int
