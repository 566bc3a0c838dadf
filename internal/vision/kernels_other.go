//go:build !amd64

package vision

func absDiffSumAVX2(a, b []uint8) int {
	panic("vision: no AVX2 kernel on this architecture")
}

func sumRows6AVX2(rows []uint8, row8 *[ThumbGrid]int) {
	panic("vision: no AVX2 kernel on this architecture")
}
