//go:build !amd64

package feature

func sqDist4AVX2(q, a0, a1, a2, a3 []float64, bound float64, s *[4]float64) bool {
	panic("feature: no AVX2 kernels on this architecture")
}

func sqDist4x2AVX2(q []float64, rows *[8][]float64, bound float64, s *[8]float64) (ok0, ok1 bool) {
	panic("feature: no AVX2 kernels on this architecture")
}

func histBinsAVX2(pix []uint8, shift uint64, counts []uint64) {
	panic("feature: no AVX2 kernels on this architecture")
}
