package cpu

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
