// The eight-way Salsa20/20 keystream (salsa20XORAVX2) and the AVX2 check
// that selects it. The lane layout and the step, input-add and transpose
// macros are in salsa20_amd64.h; each quarter-round step is five vector
// instructions for eight blocks. Fourteen of the sixteen words stay in registers through all
// twenty rounds; x2 and x13 live in their keystream slots on the stack,
// which frees Y2 and Y13 as the two temporaries a rotate needs. x2 and x13
// never meet in one quarter-round, so a step reads at most one of them, as
// VPADDD's memory operand.

//go:build amd64 && !purego

#include "textflag.h"
#include "salsa20_amd64.h"

// One double round, the four quarter-rounds of each half interleaved step
// by step: (0,4,8,12) (5,9,13,1) (10,14,2,6) (15,3,7,11), then
// (0,1,2,3) (5,6,7,4) (10,11,8,9) (15,12,13,14).
#define DOUBLEROUND \
	STEP(Y4, Y0, Y12, 7, 25); \
	STEP(Y9, Y5, Y1, 7, 25); \
	STEP(Y14, Y10, Y6, 7, 25); \
	STEP(Y3, Y15, Y11, 7, 25); \
	STEP(Y8, Y4, Y0, 9, 23); \
	STEPM(S13, Y9, Y5, 9, 23); \
	STEPM(S2, Y14, Y10, 9, 23); \
	STEP(Y7, Y3, Y15, 9, 23); \
	STEP(Y12, Y8, Y4, 13, 19); \
	STEP(Y1, S13, Y9, 13, 19); \
	STEP(Y6, S2, Y14, 13, 19); \
	STEP(Y11, Y7, Y3, 13, 19); \
	STEP(Y0, Y12, Y8, 18, 14); \
	STEP(Y5, S13, Y1, 18, 14); \
	STEP(Y10, S2, Y6, 18, 14); \
	STEP(Y15, Y11, Y7, 18, 14); \
	STEP(Y1, Y0, Y3, 7, 25); \
	STEP(Y6, Y5, Y4, 7, 25); \
	STEP(Y11, Y10, Y9, 7, 25); \
	STEP(Y12, Y15, Y14, 7, 25); \
	STEPM(S2, Y1, Y0, 9, 23); \
	STEP(Y7, Y6, Y5, 9, 23); \
	STEP(Y8, Y11, Y10, 9, 23); \
	STEPM(S13, Y12, Y15, 9, 23); \
	STEP(Y3, S2, Y1, 13, 19); \
	STEP(Y4, Y7, Y6, 13, 19); \
	STEP(Y9, Y8, Y11, 13, 19); \
	STEP(Y14, S13, Y12, 13, 19); \
	STEP(Y0, S2, Y3, 18, 14); \
	STEP(Y5, Y4, Y7, 18, 14); \
	STEP(Y10, Y9, Y8, 18, 14); \
	STEP(Y15, S13, Y14, 18, 14)

// func salsa20XORAVX2(dst *byte, src *byte, groups int, state *[16]uint32, counter uint64)
// Requires: AVX, AVX2
//
// The frame holds two 32-byte-aligned areas of sixteen vectors: the input
// words broadcast to all lanes (R8), and the keystream words of the group
// in flight (R9).
TEXT ·salsa20XORAVX2(SB), 0, $1056-40
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ groups+16(FP), DX
	MOVQ state+24(FP), BX
	MOVQ counter+32(FP), CX
	LEAQ 31(SP), R8
	ANDQ $-32, R8
	LEAQ 512(R8), R9
	LEAQ 256(R9), R10

	BROADCAST_INPUTS

group:
	COUNTER_WORDS

	VMOVDQA 0(R8), Y0
	VMOVDQA 32(R8), Y1
	VMOVDQA 64(R8), T
	VMOVDQA T, S2
	VMOVDQA 96(R8), Y3
	VMOVDQA 128(R8), Y4
	VMOVDQA 160(R8), Y5
	VMOVDQA 192(R8), Y6
	VMOVDQA 224(R8), Y7
	VMOVDQA 320(R8), Y10
	VMOVDQA 352(R8), Y11
	VMOVDQA 384(R8), Y12
	VMOVDQA 416(R8), U
	VMOVDQA U, S13
	VMOVDQA 448(R8), Y14
	VMOVDQA 480(R8), Y15

	MOVQ $10, AX

rounds:
	DOUBLEROUND
	DECQ AX
	JNZ  rounds

	// Add the input words; the keystream area then holds the output words.
	ADDW(Y0, 0)
	ADDW(Y1, 32)
	ADDWM(T, 64)
	ADDW(Y3, 96)
	ADDW(Y4, 128)
	ADDW(Y5, 160)
	ADDW(Y6, 192)
	ADDW(Y7, 224)
	ADDW(Y8, 256)
	ADDW(Y9, 288)
	ADDW(Y10, 320)
	ADDW(Y11, 352)
	ADDW(Y12, 384)
	ADDWM(U, 416)
	ADDW(Y14, 448)
	ADDW(Y15, 480)

	// Words 0-7 of each block, then words 8-15.
	TRANSPOSE_XOR(R9, NOCHAIN, NOCHAIN, NOCHAIN, NOCHAIN, NOCHAIN)
	ADDQ $32, SI
	ADDQ $32, DI
	TRANSPOSE_XOR(R10, NOCHAIN, NOCHAIN, NOCHAIN, NOCHAIN, NOCHAIN)
	ADDQ $480, SI
	ADDQ $480, DI

	ADDQ $8, CX
	DECQ DX
	JNZ  group

	VZEROUPPER
	RET

// func hasAVX2() bool
// CPUID leaf 7 advertises AVX2, and the OS saves YMM state (OSXSAVE, then
// XCR0 bits 1 and 2).
TEXT ·hasAVX2(SB), NOSPLIT, $0-1
	MOVB  $0x00, ret+0(FP)
	XORL  AX, AX
	CPUID
	CMPL  AX, $0x07
	JB    Lnoavx2
	MOVL  $0x01, AX
	XORL  CX, CX
	CPUID
	BTL   $0x1b, CX
	JCC   Lnoavx2
	XORL  CX, CX
	XGETBV
	ANDL  $0x06, AX
	CMPL  AX, $0x06
	JNE   Lnoavx2
	MOVL  $0x07, AX
	XORL  CX, CX
	CPUID
	SHRL  $0x05, BX
	ANDL  $0x01, BX
	MOVB  BX, ret+0(FP)

Lnoavx2:
	RET
