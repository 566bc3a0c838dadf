//go:build !amd64

package lsh

func filterCodesAVX2(q *[codeDims]uint8, codes []uint8, cands []int32, limit int32) int {
	panic("lsh: no AVX2 kernel on this architecture")
}
