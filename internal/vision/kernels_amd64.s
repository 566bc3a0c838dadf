#include "textflag.h"

// func absDiffSumAVX2(a, b []uint8) int
//
// VPSADBW takes the 32 byte pairs of a and b at once and leaves, in
// each of Y1's four 64-bit lanes, the sum of |a−b| over its 8 bytes
// (at most 8·255); VPADDQ adds those into Y0's four 64-bit sums, which
// no frame can overflow. The four lanes are added at the end. Integer
// sums in any order are the same sum, so this is exactly the SWAR loop.
TEXT ·absDiffSumAVX2(SB), NOSPLIT, $0-56
	MOVQ a_base+0(FP), SI
	MOVQ a_len+8(FP), CX
	MOVQ b_base+24(FP), DI
	XORQ AX, AX
	VPXOR Y0, Y0, Y0

loop:
	VMOVDQU (SI)(AX*1), Y1
	VPSADBW (DI)(AX*1), Y1, Y1
	VPADDQ Y1, Y0, Y0
	ADDQ $32, AX
	CMPQ AX, CX
	JNE loop

	VEXTRACTI128 $1, Y0, X1
	VPADDQ X1, X0, X0
	VPSHUFD $0x4e, X0, X1
	VPADDQ X1, X0, X0
	VMOVQ X0, AX
	MOVQ AX, ret+48(FP)
	VZEROUPPER
	RET
