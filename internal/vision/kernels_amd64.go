package vision

// absDiffSumAVX2 is Σ|a[i]−b[i]| in assembly (kernels_amd64.s): one
// VPSADBW per 32 pixels. len(a) is a positive multiple of 32 and b is at
// least as long.
//
//go:noescape
func absDiffSumAVX2(a, b []uint8) int
