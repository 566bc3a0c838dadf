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

// The two VPSHUFB masks of sumRows6AVX2, one YMM each. A lane's 16
// bytes hold two six-pixel segments; each mask spreads them into the
// lane's two 8-byte groups, bytes 6 and 7 of each zeroed (a mask byte
// with its top bit set writes 0). The first mask takes the segments at
// lane bytes 0–5 and 6–11 in both lanes; the second takes them there in
// the low lane and at bytes 4–9 and 10–15 in the high lane, which is
// loaded from row offset 32 so that it ends at the row's last byte.
DATA shuf6<>+0(SB)/8, $0x8080050403020100
DATA shuf6<>+8(SB)/8, $0x80800b0a09080706
DATA shuf6<>+16(SB)/8, $0x8080050403020100
DATA shuf6<>+24(SB)/8, $0x80800b0a09080706
DATA shuf6<>+32(SB)/8, $0x8080050403020100
DATA shuf6<>+40(SB)/8, $0x80800b0a09080706
DATA shuf6<>+48(SB)/8, $0x8080090807060504
DATA shuf6<>+56(SB)/8, $0x80800f0e0d0c0b0a
GLOBL shuf6<>(SB), RODATA|NOPTR, $64

// func sumRows6AVX2(rows []uint8, row8 *[8]int)
//
// A 48-pixel row is two registers. Y2's lanes are loaded from row
// offsets 0 and 12 (segments 0–1 and 2–3 in each lane's bytes 0–11),
// Y3's from 24 and 32 (segments 4–5 in bytes 0–11, 6–7 in bytes 4–15).
// After the shuffle, VPSADBW against zero leaves each segment's sum in
// its own 64-bit lane, in segment order: Y0 holds segments 0–3, Y1
// segments 4–7, each summed over the rows with VPADDQ and stored as
// row8's eight ints. No rows store zeros.
TEXT ·sumRows6AVX2(SB), NOSPLIT, $0-32
	MOVQ rows_base+0(FP), SI
	MOVQ rows_len+8(FP), CX
	MOVQ row8+24(FP), DI
	ADDQ SI, CX
	VMOVDQU shuf6<>+0(SB), Y14
	VMOVDQU shuf6<>+32(SB), Y15
	VPXOR Y13, Y13, Y13
	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1
	CMPQ SI, CX
	JEQ store

loop:
	VMOVDQU (SI), X2
	VINSERTI128 $1, 12(SI), Y2, Y2
	VPSHUFB Y14, Y2, Y2
	VPSADBW Y13, Y2, Y2
	VPADDQ Y2, Y0, Y0
	VMOVDQU 24(SI), X3
	VINSERTI128 $1, 32(SI), Y3, Y3
	VPSHUFB Y15, Y3, Y3
	VPSADBW Y13, Y3, Y3
	VPADDQ Y3, Y1, Y1
	ADDQ $48, SI
	CMPQ SI, CX
	JB loop

store:
	VMOVDQU Y0, (DI)
	VMOVDQU Y1, 32(DI)
	VZEROUPPER
	RET

// CELLS adds |a−b| over the four cells at byte offset off of a (SI)
// and b (DI) into acc's four 64-bit lanes: VPSUBQ takes the four
// differences, VPCMPGTQ against zero (Y15) their sign masks, and
// d XOR m − m is d where m is 0 and −d where m is all ones.
#define CELLS(off, acc) \
	VMOVDQU off(SI), Y2 \
	VPSUBQ off(DI), Y2, Y2 \
	VPCMPGTQ Y2, Y15, Y3 \
	VPXOR Y3, Y2, Y2 \
	VPSUBQ Y3, Y2, Y2 \
	VPADDQ Y2, acc, acc

// func lowerBoundAVX2(a, b *[64]int) int
//
// Σ|a[i]−b[i]| over the 64 cells, sixteen groups of four lanes into two
// accumulators, whose eight lanes are added at the end. Every step is
// the Go body's in two's complement — the difference and the sum wrap
// as Go's do, and d XOR m − m is max(d, −d) for every d, the most
// negative included — and integer sums in any order are the same sum,
// so the result is the Go body's bit for bit.
TEXT ·lowerBoundAVX2(SB), NOSPLIT, $0-24
	MOVQ a+0(FP), SI
	MOVQ b+8(FP), DI
	VPXOR Y15, Y15, Y15
	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1
	CELLS(0, Y0)
	CELLS(32, Y1)
	CELLS(64, Y0)
	CELLS(96, Y1)
	CELLS(128, Y0)
	CELLS(160, Y1)
	CELLS(192, Y0)
	CELLS(224, Y1)
	CELLS(256, Y0)
	CELLS(288, Y1)
	CELLS(320, Y0)
	CELLS(352, Y1)
	CELLS(384, Y0)
	CELLS(416, Y1)
	CELLS(448, Y0)
	CELLS(480, Y1)
	VPADDQ Y1, Y0, Y0
	VEXTRACTI128 $1, Y0, X1
	VPADDQ X1, X0, X0
	VPSHUFD $0x4e, X0, X1
	VPADDQ X1, X0, X0
	VMOVQ X0, AX
	MOVQ AX, ret+16(FP)
	VZEROUPPER
	RET
