// The eight-way Salsa20/20 keystream (salsa20XORAVX2) and the AVX2 check
// that selects it. State word i of eight consecutive blocks sits in one YMM
// register, lane k holding block k, so each quarter-round step is five
// vector instructions for eight blocks. Fourteen of the sixteen words stay
// in registers through all twenty rounds; x2 and x13 live in their
// keystream slots on the stack, which frees Y2 and Y13 as the two
// temporaries a rotate needs. x2 and x13 never meet in one quarter-round,
// so a step reads at most one of them, as VPADDD's memory operand.

//go:build amd64 && !purego

#include "textflag.h"

// Lane k's offset from the group's first block counter, as 64-bit words.
DATA salsaLanes<>+0x00(SB)/8, $0
DATA salsaLanes<>+0x08(SB)/8, $1
DATA salsaLanes<>+0x10(SB)/8, $2
DATA salsaLanes<>+0x18(SB)/8, $3
DATA salsaLanes<>+0x20(SB)/8, $4
DATA salsaLanes<>+0x28(SB)/8, $5
DATA salsaLanes<>+0x30(SB)/8, $6
DATA salsaLanes<>+0x38(SB)/8, $7
GLOBL salsaLanes<>(SB), RODATA|NOPTR, $64

// The two temporaries, and the stack slots of the two spilled words (R9 is
// the keystream area, word i at 32*i).
#define T Y2
#define U Y13
#define X2 64(R9)
#define X13 416(R9)

// x ^= (a + b) <<< l, with r = 32 - l; a may be X2 or X13.
#define STEP(x, a, b, l, r) \
	VPADDD a, b, T; \
	VPSLLD $l, T, U; \
	VPSRLD $r, T, T; \
	VPXOR  U, x, x; \
	VPXOR  T, x, x

// The same step for a target m that lives on the stack.
#define STEPM(m, a, b, l, r) \
	VPADDD  a, b, T; \
	VPSLLD  $l, T, U; \
	VPSRLD  $r, T, T; \
	VPXOR   m, U, U; \
	VPXOR   U, T, T; \
	VMOVDQA T, m

// One double round, the four quarter-rounds of each half interleaved step
// by step: (0,4,8,12) (5,9,13,1) (10,14,2,6) (15,3,7,11), then
// (0,1,2,3) (5,6,7,4) (10,11,8,9) (15,12,13,14).
#define DOUBLEROUND \
	STEP(Y4, Y0, Y12, 7, 25); \
	STEP(Y9, Y5, Y1, 7, 25); \
	STEP(Y14, Y10, Y6, 7, 25); \
	STEP(Y3, Y15, Y11, 7, 25); \
	STEP(Y8, Y4, Y0, 9, 23); \
	STEPM(X13, Y9, Y5, 9, 23); \
	STEPM(X2, Y14, Y10, 9, 23); \
	STEP(Y7, Y3, Y15, 9, 23); \
	STEP(Y12, Y8, Y4, 13, 19); \
	STEP(Y1, X13, Y9, 13, 19); \
	STEP(Y6, X2, Y14, 13, 19); \
	STEP(Y11, Y7, Y3, 13, 19); \
	STEP(Y0, Y12, Y8, 18, 14); \
	STEP(Y5, X13, Y1, 18, 14); \
	STEP(Y10, X2, Y6, 18, 14); \
	STEP(Y15, Y11, Y7, 18, 14); \
	STEP(Y1, Y0, Y3, 7, 25); \
	STEP(Y6, Y5, Y4, 7, 25); \
	STEP(Y11, Y10, Y9, 7, 25); \
	STEP(Y12, Y15, Y14, 7, 25); \
	STEPM(X2, Y1, Y0, 9, 23); \
	STEP(Y7, Y6, Y5, 9, 23); \
	STEP(Y8, Y11, Y10, 9, 23); \
	STEPM(X13, Y12, Y15, 9, 23); \
	STEP(Y3, X2, Y1, 13, 19); \
	STEP(Y4, Y7, Y6, 13, 19); \
	STEP(Y9, Y8, Y11, 13, 19); \
	STEP(Y14, X13, Y12, 13, 19); \
	STEP(Y0, X2, Y3, 18, 14); \
	STEP(Y5, Y4, Y7, 18, 14); \
	STEP(Y10, Y9, Y8, 18, 14); \
	STEP(Y15, X13, Y14, 18, 14)

// Transposes the eight keystream words at 0, 32, ..., 224(ks) — word j of
// blocks 0-7 each — into eight rows of one block each, XORs row k with the
// 32 bytes at 64*k(SI) and writes it to 64*k(DI). Every piece of src is
// read before the same piece of dst is written, so dst may be src.
#define TRANSPOSE_XOR(ks) \
	VMOVDQA     0(ks), Y8; \
	VPUNPCKLDQ  32(ks), Y8, Y0; \
	VPUNPCKHDQ  32(ks), Y8, Y1; \
	VMOVDQA     64(ks), Y9; \
	VPUNPCKLDQ  96(ks), Y9, Y2; \
	VPUNPCKHDQ  96(ks), Y9, Y3; \
	VMOVDQA     128(ks), Y10; \
	VPUNPCKLDQ  160(ks), Y10, Y4; \
	VPUNPCKHDQ  160(ks), Y10, Y5; \
	VMOVDQA     192(ks), Y11; \
	VPUNPCKLDQ  224(ks), Y11, Y6; \
	VPUNPCKHDQ  224(ks), Y11, Y7; \
	VPUNPCKLQDQ Y2, Y0, Y8; \
	VPUNPCKHQDQ Y2, Y0, Y9; \
	VPUNPCKLQDQ Y3, Y1, Y10; \
	VPUNPCKHQDQ Y3, Y1, Y11; \
	VPUNPCKLQDQ Y6, Y4, Y12; \
	VPUNPCKHQDQ Y6, Y4, Y13; \
	VPUNPCKLQDQ Y7, Y5, Y14; \
	VPUNPCKHQDQ Y7, Y5, Y15; \
	VPERM2I128  $0x20, Y12, Y8, Y0; \
	VPERM2I128  $0x20, Y13, Y9, Y1; \
	VPERM2I128  $0x20, Y14, Y10, Y2; \
	VPERM2I128  $0x20, Y15, Y11, Y3; \
	VPERM2I128  $0x31, Y12, Y8, Y4; \
	VPERM2I128  $0x31, Y13, Y9, Y5; \
	VPERM2I128  $0x31, Y14, Y10, Y6; \
	VPERM2I128  $0x31, Y15, Y11, Y7; \
	VPXOR       0(SI), Y0, Y0; \
	VMOVDQU     Y0, 0(DI); \
	VPXOR       64(SI), Y1, Y1; \
	VMOVDQU     Y1, 64(DI); \
	VPXOR       128(SI), Y2, Y2; \
	VMOVDQU     Y2, 128(DI); \
	VPXOR       192(SI), Y3, Y3; \
	VMOVDQU     Y3, 192(DI); \
	VPXOR       256(SI), Y4, Y4; \
	VMOVDQU     Y4, 256(DI); \
	VPXOR       320(SI), Y5, Y5; \
	VMOVDQU     Y5, 320(DI); \
	VPXOR       384(SI), Y6, Y6; \
	VMOVDQU     Y6, 384(DI); \
	VPXOR       448(SI), Y7, Y7; \
	VMOVDQU     Y7, 448(DI)

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

	// Words 8 and 9, the block counter, are set per group.
	VPBROADCASTD 0(BX), Y0
	VMOVDQA      Y0, 0(R8)
	VPBROADCASTD 4(BX), Y0
	VMOVDQA      Y0, 32(R8)
	VPBROADCASTD 8(BX), Y0
	VMOVDQA      Y0, 64(R8)
	VPBROADCASTD 12(BX), Y0
	VMOVDQA      Y0, 96(R8)
	VPBROADCASTD 16(BX), Y0
	VMOVDQA      Y0, 128(R8)
	VPBROADCASTD 20(BX), Y0
	VMOVDQA      Y0, 160(R8)
	VPBROADCASTD 24(BX), Y0
	VMOVDQA      Y0, 192(R8)
	VPBROADCASTD 28(BX), Y0
	VMOVDQA      Y0, 224(R8)
	VPBROADCASTD 40(BX), Y0
	VMOVDQA      Y0, 320(R8)
	VPBROADCASTD 44(BX), Y0
	VMOVDQA      Y0, 352(R8)
	VPBROADCASTD 48(BX), Y0
	VMOVDQA      Y0, 384(R8)
	VPBROADCASTD 52(BX), Y0
	VMOVDQA      Y0, 416(R8)
	VPBROADCASTD 56(BX), Y0
	VMOVDQA      Y0, 448(R8)
	VPBROADCASTD 60(BX), Y0
	VMOVDQA      Y0, 480(R8)

group:
	// Lane k's counter is counter+k in 64 bits, so the 2^32-block carry
	// lands in whichever lane it falls on. Split into low words (x8) and
	// high words (x9), in lane order.
	VMOVQ        CX, X0
	VPBROADCASTQ X0, Y0
	VPADDQ       salsaLanes<>+0(SB), Y0, Y1
	VPADDQ       salsaLanes<>+32(SB), Y0, Y0
	VSHUFPS      $0x88, Y0, Y1, Y8
	VSHUFPS      $0xdd, Y0, Y1, Y9
	VPERMQ       $0xd8, Y8, Y8
	VPERMQ       $0xd8, Y9, Y9
	VMOVDQA      Y8, 256(R8)
	VMOVDQA      Y9, 288(R8)

	VMOVDQA 0(R8), Y0
	VMOVDQA 32(R8), Y1
	VMOVDQA 64(R8), T
	VMOVDQA T, X2
	VMOVDQA 96(R8), Y3
	VMOVDQA 128(R8), Y4
	VMOVDQA 160(R8), Y5
	VMOVDQA 192(R8), Y6
	VMOVDQA 224(R8), Y7
	VMOVDQA 320(R8), Y10
	VMOVDQA 352(R8), Y11
	VMOVDQA 384(R8), Y12
	VMOVDQA 416(R8), U
	VMOVDQA U, X13
	VMOVDQA 448(R8), Y14
	VMOVDQA 480(R8), Y15

	MOVQ $10, AX

rounds:
	DOUBLEROUND
	DECQ AX
	JNZ  rounds

	// Add the input words; the keystream area then holds the output words.
	VPADDD  0(R8), Y0, Y0
	VMOVDQA Y0, 0(R9)
	VPADDD  32(R8), Y1, Y1
	VMOVDQA Y1, 32(R9)
	VPADDD  96(R8), Y3, Y3
	VMOVDQA Y3, 96(R9)
	VPADDD  128(R8), Y4, Y4
	VMOVDQA Y4, 128(R9)
	VPADDD  160(R8), Y5, Y5
	VMOVDQA Y5, 160(R9)
	VPADDD  192(R8), Y6, Y6
	VMOVDQA Y6, 192(R9)
	VPADDD  224(R8), Y7, Y7
	VMOVDQA Y7, 224(R9)
	VPADDD  256(R8), Y8, Y8
	VMOVDQA Y8, 256(R9)
	VPADDD  288(R8), Y9, Y9
	VMOVDQA Y9, 288(R9)
	VPADDD  320(R8), Y10, Y10
	VMOVDQA Y10, 320(R9)
	VPADDD  352(R8), Y11, Y11
	VMOVDQA Y11, 352(R9)
	VPADDD  384(R8), Y12, Y12
	VMOVDQA Y12, 384(R9)
	VPADDD  448(R8), Y14, Y14
	VMOVDQA Y14, 448(R9)
	VPADDD  480(R8), Y15, Y15
	VMOVDQA Y15, 480(R9)
	VMOVDQA X2, T
	VPADDD  64(R8), T, T
	VMOVDQA T, X2
	VMOVDQA X13, U
	VPADDD  416(R8), U, U
	VMOVDQA U, X13

	// Words 0-7 of each block, then words 8-15.
	TRANSPOSE_XOR(R9)
	ADDQ $32, SI
	ADDQ $32, DI
	TRANSPOSE_XOR(R10)
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
