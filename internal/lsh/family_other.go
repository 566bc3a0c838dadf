//go:build !amd64

package lsh

func signBlocksAVX2(v, planes []float64, words []uint64) {
	panic("lsh: no AVX2 kernel on this architecture")
}
