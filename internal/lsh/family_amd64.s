#include "textflag.h"

// func signBlocksAVX2(v, planes []float64, words []uint64)
//
// For each block of planeBlock = 16 hyperplanes, Y0–Y3 hold the 16 dot
// products, one per lane: lane j adds p_j[d]*v[d] for d ascending, the
// product rounded before the add (VMULPD then VADDPD, never an FMA),
// exactly the Go chain. A lane's sign bit is dot >= 0 (ordered, so NaN
// gives 0); block k's 16 bits go to bits 16k… of words.
TEXT ·signBlocksAVX2(SB), NOSPLIT, $0-72
	MOVQ v_base+0(FP), SI
	MOVQ v_len+8(FP), BX
	SHLQ $3, BX                 // BX = bytes per plane
	MOVQ planes_base+24(FP), DI
	MOVQ planes_len+32(FP), DX
	LEAQ (DI)(DX*8), DX         // DX = end of planes
	MOVQ words_base+48(FP), R8
	XORQ R9, R9                 // the word being filled
	XORQ CX, CX                 // where the next block's bits go in it
	VXORPD Y9, Y9, Y9

block:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	XORQ AX, AX

dim:
	VBROADCASTSD (SI)(AX*1), Y4
	VMULPD (DI), Y4, Y5
	VADDPD Y5, Y0, Y0
	VMULPD 32(DI), Y4, Y6
	VADDPD Y6, Y1, Y1
	VMULPD 64(DI), Y4, Y7
	VADDPD Y7, Y2, Y2
	VMULPD 96(DI), Y4, Y8
	VADDPD Y8, Y3, Y3
	ADDQ $128, DI
	ADDQ $8, AX
	CMPQ AX, BX
	JNE dim

	VCMPPD $0x1d, Y9, Y0, Y0 // greater-or-equal, ordered
	VCMPPD $0x1d, Y9, Y1, Y1
	VCMPPD $0x1d, Y9, Y2, Y2
	VCMPPD $0x1d, Y9, Y3, Y3
	VMOVMSKPD Y0, R10
	VMOVMSKPD Y1, R11
	SHLQ $4, R11
	ORQ R11, R10
	VMOVMSKPD Y2, R11
	SHLQ $8, R11
	ORQ R11, R10
	VMOVMSKPD Y3, R11
	SHLQ $12, R11
	ORQ R11, R10
	SHLQ CX, R10
	ORQ R10, R9
	ADDQ $16, CX
	CMPQ CX, $64
	JNE next
	MOVQ R9, (R8)
	ADDQ $8, R8
	XORQ R9, R9
	XORQ CX, CX

next:
	CMPQ DI, DX
	JB block
	TESTQ CX, CX
	JZ done
	MOVQ R9, (R8)

done:
	VZEROUPPER
	RET
