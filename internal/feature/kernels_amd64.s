#include "textflag.h"

// The AVX2 distance kernels. Each of a YMM register's four float64 lanes
// is one row's add chain, so every lane performs the Go chain's
// operations in its order: t = q[d] - a[d], t*t, s + t*t, one rounding
// each (VSUBPD, VMULPD, VADDPD; never an FMA), d ascending. Rows are
// read two dimensions at a time and transposed in registers; AX is the
// byte offset of the current dimension, DI points at q.

// PAIR1(off, r0, r1, r2, r3) adds dimensions d and d+1 (byte offset
// AX+off) of rows r0…r3 to lanes 0…3 of Y0, d first. Clobbers Y2–Y7.
#define PAIR1(off, r0, r1, r2, r3) \
	VBROADCASTSD off(DI)(AX*1), Y6; \
	VBROADCASTSD off+8(DI)(AX*1), Y7; \
	VMOVUPD off(r0)(AX*1), X2; \
	VINSERTF128 $1, off(r2)(AX*1), Y2, Y2; \
	VMOVUPD off(r1)(AX*1), X3; \
	VINSERTF128 $1, off(r3)(AX*1), Y3, Y3; \
	VUNPCKLPD Y3, Y2, Y4; \
	VUNPCKHPD Y3, Y2, Y5; \
	VSUBPD Y4, Y6, Y4; \
	VMULPD Y4, Y4, Y4; \
	VADDPD Y4, Y0, Y0; \
	VSUBPD Y5, Y7, Y5; \
	VMULPD Y5, Y5, Y5; \
	VADDPD Y5, Y0, Y0

// BLOCK1 is one ScanBlock of 16 dimensions of PAIR1.
#define BLOCK1(r0, r1, r2, r3) \
	PAIR1(0, r0, r1, r2, r3); \
	PAIR1(16, r0, r1, r2, r3); \
	PAIR1(32, r0, r1, r2, r3); \
	PAIR1(48, r0, r1, r2, r3); \
	PAIR1(64, r0, r1, r2, r3); \
	PAIR1(80, r0, r1, r2, r3); \
	PAIR1(96, r0, r1, r2, r3); \
	PAIR1(112, r0, r1, r2, r3)

// PAIR2(off) is PAIR1 for two groups at once: rows R8–R11 into Y0 and
// rows BX, DX, SI, R12 into Y1, sharing the broadcasts of q. Clobbers
// Y2–Y11.
#define PAIR2(off) \
	VBROADCASTSD off(DI)(AX*1), Y6; \
	VBROADCASTSD off+8(DI)(AX*1), Y7; \
	VMOVUPD off(R8)(AX*1), X2; \
	VINSERTF128 $1, off(R10)(AX*1), Y2, Y2; \
	VMOVUPD off(R9)(AX*1), X3; \
	VINSERTF128 $1, off(R11)(AX*1), Y3, Y3; \
	VMOVUPD off(BX)(AX*1), X8; \
	VINSERTF128 $1, off(SI)(AX*1), Y8, Y8; \
	VMOVUPD off(DX)(AX*1), X9; \
	VINSERTF128 $1, off(R12)(AX*1), Y9, Y9; \
	VUNPCKLPD Y3, Y2, Y4; \
	VUNPCKHPD Y3, Y2, Y5; \
	VUNPCKLPD Y9, Y8, Y10; \
	VUNPCKHPD Y9, Y8, Y11; \
	VSUBPD Y4, Y6, Y4; \
	VSUBPD Y10, Y6, Y10; \
	VMULPD Y4, Y4, Y4; \
	VMULPD Y10, Y10, Y10; \
	VADDPD Y4, Y0, Y0; \
	VADDPD Y10, Y1, Y1; \
	VSUBPD Y5, Y7, Y5; \
	VSUBPD Y11, Y7, Y11; \
	VMULPD Y5, Y5, Y5; \
	VMULPD Y11, Y11, Y11; \
	VADDPD Y5, Y0, Y0; \
	VADDPD Y11, Y1, Y1

#define BLOCK2 \
	PAIR2(0); \
	PAIR2(16); \
	PAIR2(32); \
	PAIR2(48); \
	PAIR2(64); \
	PAIR2(80); \
	PAIR2(96); \
	PAIR2(112)

// GAVEUP(acc, tmp, reg) sets reg to 15 when every lane of acc exceeds
// the bound in Y15 (compare greater-than, ordered: a NaN lane never
// does).
#define GAVEUP(acc, tmp, reg) \
	VCMPPD $0x1e, Y15, acc, tmp; \
	VMOVMSKPD tmp, reg

// func sqDist4AVX2(q, a0, a1, a2, a3 []float64, bound float64, s *[4]float64) bool
TEXT ·sqDist4AVX2(SB), NOSPLIT, $0-137
	MOVQ q_base+0(FP), DI
	MOVQ q_len+8(FP), CX
	SHLQ $3, CX
	MOVQ a0_base+24(FP), R8
	MOVQ a1_base+48(FP), R9
	MOVQ a2_base+72(FP), R10
	MOVQ a3_base+96(FP), R11
	VBROADCASTSD bound+120(FP), Y15
	VXORPD Y0, Y0, Y0
	XORQ AX, AX
	MOVB $1, ret+136(FP)

loop:
	BLOCK1(R8, R9, R10, R11)
	ADDQ $128, AX
	GAVEUP(Y0, Y2, BX)
	CMPQ BX, $15
	JEQ gaveup
	CMPQ AX, CX
	JNE loop
	JMP done

gaveup:
	MOVB $0, ret+136(FP)

done:
	MOVQ s+128(FP), DX
	VMOVUPD Y0, (DX)
	VZEROUPPER
	RET

// func sqDist4x2AVX2(q []float64, rows *[8][]float64, bound float64, s *[8]float64) (ok0, ok1 bool)
TEXT ·sqDist4x2AVX2(SB), NOSPLIT, $0-50
	MOVQ q_base+0(FP), DI
	MOVQ q_len+8(FP), CX
	SHLQ $3, CX
	MOVQ rows+24(FP), R13
	MOVQ 0(R13), R8
	MOVQ 24(R13), R9
	MOVQ 48(R13), R10
	MOVQ 72(R13), R11
	MOVQ 96(R13), BX
	MOVQ 120(R13), DX
	MOVQ 144(R13), SI
	MOVQ 168(R13), R12
	VBROADCASTSD bound+32(FP), Y15
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	XORQ AX, AX
	MOVB $1, ok0+48(FP)
	MOVB $1, ok1+49(FP)

both:
	BLOCK2
	ADDQ $128, AX
	GAVEUP(Y0, Y2, R13)
	CMPQ R13, $15
	JEQ dropA
	GAVEUP(Y1, Y3, R13)
	CMPQ R13, $15
	JEQ dropB
	CMPQ AX, CX
	JNE both
	MOVQ s+40(FP), R13
	VMOVUPD Y0, (R13)
	VMOVUPD Y1, 32(R13)
	VZEROUPPER
	RET

// Group A gave up: its sums stay as they are now. If group B did too,
// both are done; otherwise B goes on alone in A's registers.
dropA:
	MOVQ s+40(FP), R13
	VMOVUPD Y0, (R13)
	MOVB $0, ok0+48(FP)
	GAVEUP(Y1, Y3, R13)
	CMPQ R13, $15
	JEQ dropBoth
	MOVQ BX, R8
	MOVQ DX, R9
	MOVQ SI, R10
	MOVQ R12, R11
	VMOVUPD Y1, Y0
	MOVQ $32, BX // the survivor's sums go to s[4:8]
	MOVQ $1, DX  // and its flag is ok1
	JMP one

dropBoth:
	MOVQ s+40(FP), R13
	VMOVUPD Y1, 32(R13)
	MOVB $0, ok1+49(FP)
	VZEROUPPER
	RET

// Group B gave up alone: A goes on.
dropB:
	MOVQ s+40(FP), R13
	VMOVUPD Y1, 32(R13)
	MOVB $0, ok1+49(FP)
	XORQ BX, BX // the survivor's sums go to s[0:4]
	XORQ DX, DX // and its flag is ok0

// One group left, rows in R8–R11 and sums in Y0; BX is the byte
// offset of its sums in s and DX that of its flag after ok0.
one:
	CMPQ AX, CX
	JEQ oneDone

oneLoop:
	BLOCK1(R8, R9, R10, R11)
	ADDQ $128, AX
	GAVEUP(Y0, Y2, R13)
	CMPQ R13, $15
	JEQ oneDrop
	CMPQ AX, CX
	JNE oneLoop

oneDone:
	MOVQ s+40(FP), R13
	VMOVUPD Y0, (R13)(BX*1)
	VZEROUPPER
	RET

oneDrop:
	MOVQ s+40(FP), R13
	VMOVUPD Y0, (R13)(BX*1)
	LEAQ ok0+48(FP), R13
	MOVB $0, (R13)(DX*1)
	VZEROUPPER
	RET

// The histogram kernel. A pixel's bin is its byte shifted right
// (VPSRLW on 16-bit words, then VPAND with 0xff>>shift to drop the bits
// the high byte shifts into the low one). A pass counts 8 bins, base to
// base+7, into Y0–Y7: Y8 is a vector of 32 bins less base, VPCMPEQB
// against binBytes<> row j sets a byte to −1 where it equals j, and
// VPSUBB subtracts that from Yj, one byte lane per pixel position. A
// lane gains at most one per vector, so after at most 255 vectors it
// has not wrapped; then VPSADBW against zero sums each 8 lanes into a
// 64-bit one, the four are added into counts[base+j], and the lanes
// start again from zero.

// binBytes<> row j (32 bytes at 32·j) is j in every byte.
DATA binBytes<>+0x00(SB)/8, $0x0000000000000000
DATA binBytes<>+0x08(SB)/8, $0x0000000000000000
DATA binBytes<>+0x10(SB)/8, $0x0000000000000000
DATA binBytes<>+0x18(SB)/8, $0x0000000000000000
DATA binBytes<>+0x20(SB)/8, $0x0101010101010101
DATA binBytes<>+0x28(SB)/8, $0x0101010101010101
DATA binBytes<>+0x30(SB)/8, $0x0101010101010101
DATA binBytes<>+0x38(SB)/8, $0x0101010101010101
DATA binBytes<>+0x40(SB)/8, $0x0202020202020202
DATA binBytes<>+0x48(SB)/8, $0x0202020202020202
DATA binBytes<>+0x50(SB)/8, $0x0202020202020202
DATA binBytes<>+0x58(SB)/8, $0x0202020202020202
DATA binBytes<>+0x60(SB)/8, $0x0303030303030303
DATA binBytes<>+0x68(SB)/8, $0x0303030303030303
DATA binBytes<>+0x70(SB)/8, $0x0303030303030303
DATA binBytes<>+0x78(SB)/8, $0x0303030303030303
DATA binBytes<>+0x80(SB)/8, $0x0404040404040404
DATA binBytes<>+0x88(SB)/8, $0x0404040404040404
DATA binBytes<>+0x90(SB)/8, $0x0404040404040404
DATA binBytes<>+0x98(SB)/8, $0x0404040404040404
DATA binBytes<>+0xa0(SB)/8, $0x0505050505050505
DATA binBytes<>+0xa8(SB)/8, $0x0505050505050505
DATA binBytes<>+0xb0(SB)/8, $0x0505050505050505
DATA binBytes<>+0xb8(SB)/8, $0x0505050505050505
DATA binBytes<>+0xc0(SB)/8, $0x0606060606060606
DATA binBytes<>+0xc8(SB)/8, $0x0606060606060606
DATA binBytes<>+0xd0(SB)/8, $0x0606060606060606
DATA binBytes<>+0xd8(SB)/8, $0x0606060606060606
DATA binBytes<>+0xe0(SB)/8, $0x0707070707070707
DATA binBytes<>+0xe8(SB)/8, $0x0707070707070707
DATA binBytes<>+0xf0(SB)/8, $0x0707070707070707
DATA binBytes<>+0xf8(SB)/8, $0x0707070707070707
GLOBL binBytes<>(SB), RODATA|NOPTR, $256

// COUNT(off, acc) adds one to the lanes of acc where Y8 equals the bin
// of binBytes<> row off/32. Clobbers Y9.
#define COUNT(off, acc) \
	VPCMPEQB binBytes<>+off(SB), Y8, Y9; \
	VPSUBB Y9, acc, acc

// FLUSH(acc, accx, off) adds the 32 byte lanes of acc to the count at
// byte offset off of this pass's counts (DI+R9), and zeroes acc.
// Clobbers Y9, Y15 and BX.
#define FLUSH(acc, accx, off) \
	VPSADBW Y13, acc, acc; \
	VEXTRACTI128 $1, acc, X9; \
	VPADDQ X9, accx, X9; \
	VPSHUFD $0x4e, X9, X15; \
	VPADDQ X15, X9, X9; \
	VMOVQ X9, BX; \
	ADDQ BX, off(DI)(R9*1); \
	VPXOR acc, acc, acc

// func histBinsAVX2(pix []uint8, shift uint64, counts []uint64)
TEXT ·histBinsAVX2(SB), NOSPLIT, $0-56
	MOVQ pix_base+0(FP), SI
	MOVQ pix_len+8(FP), DX
	MOVQ shift+24(FP), CX
	MOVQ counts_base+32(FP), DI
	MOVQ counts_len+40(FP), R8
	SHLQ $3, R8 // R8 = bytes of counts
	VMOVQ CX, X12 // the shift count
	MOVL $0xff, BX
	SHRL CX, BX
	VMOVQ BX, X10
	VPBROADCASTB X10, Y10 // Y10 = 0xff>>shift in every byte
	MOVL $8, BX
	VMOVQ BX, X14
	VPBROADCASTB X14, Y14 // Y14 = 8 in every byte
	VPXOR Y13, Y13, Y13
	VPXOR Y11, Y11, Y11 // Y11 = this pass's base bin in every byte
	XORQ R9, R9 // R9 = byte offset of this pass's counts
	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1
	VPXOR Y2, Y2, Y2
	VPXOR Y3, Y3, Y3
	VPXOR Y4, Y4, Y4
	VPXOR Y5, Y5, Y5
	VPXOR Y6, Y6, Y6
	VPXOR Y7, Y7, Y7

pass:
	XORQ AX, AX

// A chunk is at most 255 vectors: R10 is where it ends.
chunk:
	LEAQ 8160(AX), R10
	CMPQ R10, DX
	CMOVQGT DX, R10

vec:
	VMOVDQU (SI)(AX*1), Y8
	VPSRLW X12, Y8, Y8
	VPAND Y10, Y8, Y8
	VPSUBB Y11, Y8, Y8
	COUNT(0x00, Y0)
	COUNT(0x20, Y1)
	COUNT(0x40, Y2)
	COUNT(0x60, Y3)
	COUNT(0x80, Y4)
	COUNT(0xa0, Y5)
	COUNT(0xc0, Y6)
	COUNT(0xe0, Y7)
	ADDQ $32, AX
	CMPQ AX, R10
	JNE vec

	FLUSH(Y0, X0, 0)
	FLUSH(Y1, X1, 8)
	FLUSH(Y2, X2, 16)
	FLUSH(Y3, X3, 24)
	FLUSH(Y4, X4, 32)
	FLUSH(Y5, X5, 40)
	FLUSH(Y6, X6, 48)
	FLUSH(Y7, X7, 56)
	CMPQ AX, DX
	JNE chunk

	VPADDB Y14, Y11, Y11
	ADDQ $64, R9
	CMPQ R9, R8
	JNE pass
	VZEROUPPER
	RET
