package feature

// sqDist4AVX2 is SqDist4 over the whole blocks of q (len(q) a positive
// multiple of ScanBlock, every row at least as long), writing the sums
// into s.
//
//go:noescape
func sqDist4AVX2(q, a0, a1, a2, a3 []float64, bound float64, s *[4]float64) bool

// sqDist4x2AVX2 is SqDist4x2 over the whole blocks of q, under the same
// conditions as sqDist4AVX2.
//
//go:noescape
func sqDist4x2AVX2(q []float64, rows *[8][]float64, bound float64, s *[8]float64) (ok0, ok1 bool)

// histBinsAVX2 adds to counts[b] the number of pixels p of pix with
// p>>shift = b, for every b below len(counts), a positive multiple of 8.
// len(pix) is a positive multiple of 32.
//
//go:noescape
func histBinsAVX2(pix []uint8, shift uint64, counts []uint64)
