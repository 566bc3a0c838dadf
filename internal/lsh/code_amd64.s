#include "textflag.h"

// DIST leaves in acc (a YMM register) eight int32 lanes whose sum is the
// squared distance between the code at p and the query's, held widened
// to int16 words in Y12–Y15: each 16-byte quarter is zero-extended
// (VPMOVZXBW), subtracted (VPSUBW: |d| ≤ 255) and squared in pairs
// (VPMADDWD: 2·255² fits an int32 lane).
#define DIST(p, acc) \
	VPMOVZXBW (p), acc \
	VPSUBW Y12, acc, acc \
	VPMADDWD acc, acc, acc \
	VPMOVZXBW 16(p), Y8 \
	VPSUBW Y13, Y8, Y8 \
	VPMADDWD Y8, Y8, Y8 \
	VPADDD Y8, acc, acc \
	VPMOVZXBW 32(p), Y9 \
	VPSUBW Y14, Y9, Y9 \
	VPMADDWD Y9, Y9, Y9 \
	VPADDD Y9, acc, acc \
	VPMOVZXBW 48(p), Y10 \
	VPSUBW Y15, Y10, Y10 \
	VPMADDWD Y10, Y10, Y10 \
	VPADDD Y10, acc, acc

// KEEP copies the candidate at offset off of the group to the kept
// prefix, which advances by AX's low bit (1 to keep it).
#define KEEP(off) \
	MOVL off(SI)(BX*4), R9 \
	MOVL R9, (SI)(DX*4) \
	MOVL AX, R13 \
	ANDL $1, R13 \
	ADDQ R13, DX \
	SHRL $1, AX

// func filterCodesAVX2(q *[64]uint8, codes []uint8, cands []int32, limit int32) int
//
// Four candidates a pass: their distances in Y0–Y3, reduced by three
// VPHADDD and one 128-bit fold to one int32 lane each, compared with
// limit, and the candidates within it compacted to the front of cands.
// len(cands) is a multiple of 4; a kept candidate is written no later
// than it is read.
TEXT ·filterCodesAVX2(SB), NOSPLIT, $0-72
	MOVQ q+0(FP), AX
	VPMOVZXBW (AX), Y12
	VPMOVZXBW 16(AX), Y13
	VPMOVZXBW 32(AX), Y14
	VPMOVZXBW 48(AX), Y15
	MOVQ codes_base+8(FP), R8
	MOVQ cands_base+32(FP), SI
	MOVQ cands_len+40(FP), CX
	MOVL limit+56(FP), R13
	VMOVD R13, X11
	VPBROADCASTD X11, X11
	XORQ BX, BX // the group being read
	XORQ DX, DX // candidates kept
	TESTQ CX, CX
	JZ done

group:
	MOVL (SI)(BX*4), R9
	SHLQ $6, R9
	ADDQ R8, R9
	MOVL 4(SI)(BX*4), R10
	SHLQ $6, R10
	ADDQ R8, R10
	MOVL 8(SI)(BX*4), R11
	SHLQ $6, R11
	ADDQ R8, R11
	MOVL 12(SI)(BX*4), R12
	SHLQ $6, R12
	ADDQ R8, R12
	DIST(R9, Y0)
	DIST(R10, Y1)
	DIST(R11, Y2)
	DIST(R12, Y3)
	VPHADDD Y1, Y0, Y0 // a01 a23 b01 b23 | a45 a67 b45 b67
	VPHADDD Y3, Y2, Y2 // c01 c23 d01 d23 | c45 c67 d45 d67
	VPHADDD Y2, Y0, Y0 // a0-3 b0-3 c0-3 d0-3 | a4-7 b4-7 c4-7 d4-7
	VEXTRACTI128 $1, Y0, X1
	VPADDD X1, X0, X0
	VPCMPGTD X11, X0, X0 // lane j: distance > limit
	VMOVMSKPS X0, AX
	XORL $15, AX // bit j: keep candidate j
	KEEP(0)
	KEEP(4)
	KEEP(8)
	KEEP(12)
	ADDQ $4, BX
	CMPQ BX, CX
	JB group

done:
	MOVQ DX, ret+64(FP)
	VZEROUPPER
	RET
