//go:build !amd64

package lsh

// hasAVX2 is false off amd64: signBlocksGo is the only kernel.
const hasAVX2 = false

func signBlocksAVX2(v, planes []float64, words []uint64) {
	panic("lsh: no AVX2 kernel on this architecture")
}
