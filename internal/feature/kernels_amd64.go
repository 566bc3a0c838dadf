package feature

// hasAVX2 reports whether this host runs the AVX2 kernels: the CPU has
// AVX and AVX2, and the operating system saves the YMM registers.
var hasAVX2 = detectAVX2()

func detectAVX2() bool {
	_, _, c1, _ := cpuid(1, 0)
	const osxsave, avx = 1 << 27, 1 << 28
	if c1&osxsave == 0 || c1&avx == 0 {
		return false
	}
	if xgetbv0()&6 != 6 { // XMM and YMM state enabled
		return false
	}
	max, _, _, _ := cpuid(0, 0)
	if max < 7 {
		return false
	}
	_, b7, _, _ := cpuid(7, 0)
	return b7&(1<<5) != 0
}

func cpuid(eax, ecx uint32) (a, b, c, d uint32)

// xgetbv0 returns the low half of extended control register 0.
func xgetbv0() uint32

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
