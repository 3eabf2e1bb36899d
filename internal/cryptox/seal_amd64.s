// The stitched payload seal (payloadSealAVX2): the eight-way AVX2 Salsa20/20
// of salsa20_amd64.s and the AES-128 CBC-MAC chain of cbcmacAsm
// (aes_amd64.s), interleaved instruction by instruction. The chain is bound
// by AESENC latency and leaves the vector ports idle while it waits; the
// Salsa20 rounds are bound by vector throughput and fill them.
//
// The lag of one group. Iteration g writes the ciphertext of its group to
// dst[512g:512g+512] and, beside it, chains the 32 blocks
// mac[512g:512g+512]. SealAppend points dst 520 bytes past mac, one group
// and the nonce, so every chained byte was written by an earlier iteration
// (or, for g = 0, before the call) and no chained byte is written by this
// one.
//
// Registers. The chain needs one XMM register, its state, so the seal
// spills a third Salsa20 word: x4 lives in its keystream slot beside x2
// and x13, and X4 carries the chain. The chain's blocks and round keys are
// VPXOR and VAESENC memory operands, the keys copied to the frame. x4, like
// x2 and x13, never meets another spilled word as the two inputs of one
// step (the step inputs are cyclically adjacent words of a quarter-round;
// x4 shares neither quarter-round with x2 or x13), so a step still reads at
// most one slot. The chain carries y = x ^ k0, as cbcmacAsm does, so
// VPXOR with the block whitens it and VAESENCLAST with k10 ^ k0 leaves the
// next y.
//
// Schedule. A block is eleven chain instructions (VPXOR, nine VAESENC,
// VAESENCLAST); a group's 32 blocks are 352. Each of the ten double rounds
// runs three blocks, one chain instruction after each of its 32 steps (five
// or six vector instructions) and the 33rd at its end. The last two blocks
// ride the group's tail: one instruction after each of the first eleven
// input-word additions, then one after every eight to ten instructions of
// the two transposes. The longest stretch without a chain instruction is
// the 48 across the group boundary (the last stores, the counter words,
// the input loads), far inside the out-of-order window, so the chain's
// next step is always in flight. The chain, about 1.5 times longer than
// the Salsa20 work per group, sets the pace: a stitched group costs what
// its 32 CMAC blocks alone cost.

//go:build amd64 && !purego

#include "textflag.h"
#include "salsa20_amd64.h"

// x4's stack slot.
#define S4 128(R9)

// The chain's round keys in the frame: k1..k9, then k10 ^ k0.
#define RK1 1024(R8)
#define RK2 1040(R8)
#define RK3 1056(R8)
#define RK4 1072(R8)
#define RK5 1088(R8)
#define RK6 1104(R8)
#define RK7 1120(R8)
#define RK8 1136(R8)
#define RK9 1152(R8)
#define RKL 1168(R8)

// The chain instructions: whiten the block at off(R11) into the state, one
// middle round, the last round.
#define MXOR(off) VPXOR off(R11), X4, X4
#define MENC(k) VAESENC k, X4, X4
#define MLAST VAESENCLAST RKL, X4, X4

// One double round of salsa20_amd64.s, x4 read from and written to S4,
// with three chain blocks, at 0, 16 and 32(R11), threaded through it.
#define DOUBLEROUND_CHAIN \
	STEPM(S4, Y0, Y12, 7, 25); MXOR(0); \
	STEP(Y9, Y5, Y1, 7, 25); MENC(RK1); \
	STEP(Y14, Y10, Y6, 7, 25); MENC(RK2); \
	STEP(Y3, Y15, Y11, 7, 25); MENC(RK3); \
	STEP(Y8, S4, Y0, 9, 23); MENC(RK4); \
	STEPM(S13, Y9, Y5, 9, 23); MENC(RK5); \
	STEPM(S2, Y14, Y10, 9, 23); MENC(RK6); \
	STEP(Y7, Y3, Y15, 9, 23); MENC(RK7); \
	STEP(Y12, S4, Y8, 13, 19); MENC(RK8); \
	STEP(Y1, S13, Y9, 13, 19); MENC(RK9); \
	STEP(Y6, S2, Y14, 13, 19); MLAST; \
	STEP(Y11, Y7, Y3, 13, 19); MXOR(16); \
	STEP(Y0, Y12, Y8, 18, 14); MENC(RK1); \
	STEP(Y5, S13, Y1, 18, 14); MENC(RK2); \
	STEP(Y10, S2, Y6, 18, 14); MENC(RK3); \
	STEP(Y15, Y11, Y7, 18, 14); MENC(RK4); \
	STEP(Y1, Y0, Y3, 7, 25); MENC(RK5); \
	STEP(Y6, S4, Y5, 7, 25); MENC(RK6); \
	STEP(Y11, Y10, Y9, 7, 25); MENC(RK7); \
	STEP(Y12, Y15, Y14, 7, 25); MENC(RK8); \
	STEPM(S2, Y1, Y0, 9, 23); MENC(RK9); \
	STEP(Y7, Y6, Y5, 9, 23); MLAST; \
	STEP(Y8, Y11, Y10, 9, 23); MXOR(32); \
	STEPM(S13, Y12, Y15, 9, 23); MENC(RK1); \
	STEP(Y3, S2, Y1, 13, 19); MENC(RK2); \
	STEPM(S4, Y7, Y6, 13, 19); MENC(RK3); \
	STEP(Y9, Y8, Y11, 13, 19); MENC(RK4); \
	STEP(Y14, S13, Y12, 13, 19); MENC(RK5); \
	STEP(Y0, S2, Y3, 18, 14); MENC(RK6); \
	STEP(Y5, S4, Y7, 18, 14); MENC(RK7); \
	STEP(Y10, Y9, Y8, 18, 14); MENC(RK8); \
	STEP(Y15, S13, Y14, 18, 14); MENC(RK9); \
	MLAST

// func payloadSealAVX2(dst *byte, src *byte, groups int, state *[16]uint32, counter uint64, xk *uint32, x *[16]byte, mac *byte)
// Requires: AVX, AVX2, AES
//
// The frame holds the input words broadcast to all lanes (R8), the
// keystream words of the group in flight (R9) and the ten round keys of
// the chain (1024(R8)).
TEXT ·payloadSealAVX2(SB), 0, $1216-64
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ groups+16(FP), DX
	MOVQ state+24(FP), BX
	MOVQ counter+32(FP), CX
	MOVQ xk+40(FP), R13
	MOVQ x+48(FP), R12
	MOVQ mac+56(FP), R11
	LEAQ 31(SP), R8
	ANDQ $-32, R8
	LEAQ 512(R8), R9
	LEAQ 256(R9), R10

	BROADCAST_INPUTS

	VMOVDQU 16(R13), X0
	VMOVDQA X0, RK1
	VMOVDQU 32(R13), X0
	VMOVDQA X0, RK2
	VMOVDQU 48(R13), X0
	VMOVDQA X0, RK3
	VMOVDQU 64(R13), X0
	VMOVDQA X0, RK4
	VMOVDQU 80(R13), X0
	VMOVDQA X0, RK5
	VMOVDQU 96(R13), X0
	VMOVDQA X0, RK6
	VMOVDQU 112(R13), X0
	VMOVDQA X0, RK7
	VMOVDQU 128(R13), X0
	VMOVDQA X0, RK8
	VMOVDQU 144(R13), X0
	VMOVDQA X0, RK9
	VMOVDQU 0(R13), X1
	VMOVDQU 160(R13), X0
	VPXOR   X1, X0, X0
	VMOVDQA X0, RKL
	VMOVDQU (R12), X4
	VPXOR   X1, X4, X4

group:
	COUNTER_WORDS

	VMOVDQA 0(R8), Y0
	VMOVDQA 32(R8), Y1
	VMOVDQA 64(R8), T
	VMOVDQA T, S2
	VMOVDQA 96(R8), Y3
	VMOVDQA 128(R8), U
	VMOVDQA U, S4
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
	DOUBLEROUND_CHAIN
	ADDQ $48, R11
	DECQ AX
	JNZ  rounds

	// Add the input words, with the group's 31st block.
	ADDW(Y0, 0)
	MXOR(0)
	ADDW(Y1, 32)
	MENC(RK1)
	ADDWM(T, 64)
	MENC(RK2)
	ADDW(Y3, 96)
	MENC(RK3)
	ADDWM(U, 128)
	MENC(RK4)
	ADDW(Y5, 160)
	MENC(RK5)
	ADDW(Y6, 192)
	MENC(RK6)
	ADDW(Y7, 224)
	MENC(RK7)
	ADDW(Y8, 256)
	MENC(RK8)
	ADDW(Y9, 288)
	MENC(RK9)
	ADDW(Y10, 320)
	MLAST
	ADDW(Y11, 352)
	ADDW(Y12, 384)
	ADDWM(T, 416)
	ADDW(Y14, 448)
	ADDW(Y15, 480)

	// Words 0-7 of each block, then words 8-15, with the 32nd block.
	TRANSPOSE_XOR(R9, MXOR(16), MENC(RK1), MENC(RK2), MENC(RK3), MENC(RK4))
	ADDQ $32, SI
	ADDQ $32, DI
	MENC(RK5)
	TRANSPOSE_XOR(R10, MENC(RK6), MENC(RK7), MENC(RK8), MENC(RK9), MLAST)
	ADDQ $480, SI
	ADDQ $480, DI
	ADDQ $32, R11

	ADDQ $8, CX
	DECQ DX
	JNZ  group

	// Unfold k0: the state is x again.
	VMOVDQU 0(R13), X1
	VPXOR   X1, X4, X4
	VMOVDQU X4, (R12)
	VZEROUPPER
	RET
