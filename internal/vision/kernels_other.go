//go:build !amd64

package vision

func absDiffSumAVX2(a, b []uint8) int {
	panic("vision: no AVX2 kernel on this architecture")
}
