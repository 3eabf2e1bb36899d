// Macros shared by the two eight-way AVX2 Salsa20/20 kernels: the plain
// keystream (salsa20_amd64.s) and the stitched seal (seal_amd64.s). State
// word i of eight consecutive blocks sits in one YMM register, lane k
// holding block k. Both frames keep the input words broadcast to all lanes
// at R8 and the group's keystream words at R9, word i at 32*i; a word that
// does not fit in a register lives in its keystream slot.

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

// The two temporaries a rotate needs, and the stack slots of x2 and x13,
// which both kernels spill.
#define T Y2
#define U Y13
#define S2 64(R9)
#define S13 416(R9)

// x ^= (a + b) <<< l, with r = 32 - l; a may be a stack slot.
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

// Broadcasts the input words at BX to all lanes at R8. Words 8 and 9, the
// block counter, are set per group (COUNTER_WORDS).
#define BROADCAST_INPUTS \
	VPBROADCASTD 0(BX), Y0; \
	VMOVDQA      Y0, 0(R8); \
	VPBROADCASTD 4(BX), Y0; \
	VMOVDQA      Y0, 32(R8); \
	VPBROADCASTD 8(BX), Y0; \
	VMOVDQA      Y0, 64(R8); \
	VPBROADCASTD 12(BX), Y0; \
	VMOVDQA      Y0, 96(R8); \
	VPBROADCASTD 16(BX), Y0; \
	VMOVDQA      Y0, 128(R8); \
	VPBROADCASTD 20(BX), Y0; \
	VMOVDQA      Y0, 160(R8); \
	VPBROADCASTD 24(BX), Y0; \
	VMOVDQA      Y0, 192(R8); \
	VPBROADCASTD 28(BX), Y0; \
	VMOVDQA      Y0, 224(R8); \
	VPBROADCASTD 40(BX), Y0; \
	VMOVDQA      Y0, 320(R8); \
	VPBROADCASTD 44(BX), Y0; \
	VMOVDQA      Y0, 352(R8); \
	VPBROADCASTD 48(BX), Y0; \
	VMOVDQA      Y0, 384(R8); \
	VPBROADCASTD 52(BX), Y0; \
	VMOVDQA      Y0, 416(R8); \
	VPBROADCASTD 56(BX), Y0; \
	VMOVDQA      Y0, 448(R8); \
	VPBROADCASTD 60(BX), Y0; \
	VMOVDQA      Y0, 480(R8)

// Lane k's counter is CX+k in 64 bits, so the 2^32-block carry lands in
// whichever lane it falls on. Split into low words (x8) and high words
// (x9), in lane order, at 256 and 288(R8).
#define COUNTER_WORDS \
	VMOVQ        CX, X0; \
	VPBROADCASTQ X0, Y0; \
	VPADDQ       salsaLanes<>+0(SB), Y0, Y1; \
	VPADDQ       salsaLanes<>+32(SB), Y0, Y0; \
	VSHUFPS      $0x88, Y0, Y1, Y8; \
	VSHUFPS      $0xdd, Y0, Y1, Y9; \
	VPERMQ       $0xd8, Y8, Y8; \
	VPERMQ       $0xd8, Y9, Y9; \
	VMOVDQA      Y8, 256(R8); \
	VMOVDQA      Y9, 288(R8)

// Adds the input word at off(R8) to register r and stores the keystream
// word to its slot at off(R9).
#define ADDW(r, off) \
	VPADDD  off(R8), r, r; \
	VMOVDQA r, off(R9)

// The same for a word that lives in its slot, through the temporary t.
#define ADDWM(t, off) \
	VMOVDQA off(R9), t; \
	VPADDD  off(R8), t, t; \
	VMOVDQA t, off(R9)

// Transposes the eight keystream words at 0, 32, ..., 224(ks) — word j of
// blocks 0-7 each — into eight rows of one block each, XORs row k with the
// 32 bytes at 64*k(SI) and writes it to 64*k(DI). Every piece of src is
// read before the same piece of dst is written, so dst may be src. Y4 is
// left alone, since the seal's chain lives there, and c1..c5 are the
// seal's chain instructions, threaded through; the plain keystream passes
// NOCHAIN.
#define TRANSPOSE_XOR(ks, c1, c2, c3, c4, c5) \
	VMOVDQA     0(ks), Y8; \
	VPUNPCKLDQ  32(ks), Y8, Y0; \
	VPUNPCKHDQ  32(ks), Y8, Y1; \
	VMOVDQA     64(ks), Y9; \
	VPUNPCKLDQ  96(ks), Y9, Y2; \
	VPUNPCKHDQ  96(ks), Y9, Y3; \
	c1; \
	VMOVDQA     128(ks), Y10; \
	VPUNPCKLDQ  160(ks), Y10, Y5; \
	VPUNPCKHDQ  160(ks), Y10, Y6; \
	VMOVDQA     192(ks), Y11; \
	VPUNPCKLDQ  224(ks), Y11, Y7; \
	VPUNPCKHDQ  224(ks), Y11, Y15; \
	c2; \
	VPUNPCKLQDQ Y2, Y0, Y8; \
	VPUNPCKHQDQ Y2, Y0, Y9; \
	VPUNPCKLQDQ Y3, Y1, Y10; \
	VPUNPCKHQDQ Y3, Y1, Y11; \
	VPUNPCKLQDQ Y7, Y5, Y12; \
	VPUNPCKHQDQ Y7, Y5, Y13; \
	VPUNPCKLQDQ Y15, Y6, Y14; \
	VPUNPCKHQDQ Y15, Y6, Y15; \
	c3; \
	VPERM2I128  $0x20, Y12, Y8, Y0; \
	VPERM2I128  $0x20, Y13, Y9, Y1; \
	VPERM2I128  $0x20, Y14, Y10, Y2; \
	VPERM2I128  $0x20, Y15, Y11, Y3; \
	VPERM2I128  $0x31, Y12, Y8, Y12; \
	VPERM2I128  $0x31, Y13, Y9, Y5; \
	VPERM2I128  $0x31, Y14, Y10, Y6; \
	VPERM2I128  $0x31, Y15, Y11, Y7; \
	c4; \
	VPXOR       0(SI), Y0, Y0; \
	VMOVDQU     Y0, 0(DI); \
	VPXOR       64(SI), Y1, Y1; \
	VMOVDQU     Y1, 64(DI); \
	VPXOR       128(SI), Y2, Y2; \
	VMOVDQU     Y2, 128(DI); \
	VPXOR       192(SI), Y3, Y3; \
	VMOVDQU     Y3, 192(DI); \
	c5; \
	VPXOR       256(SI), Y12, Y12; \
	VMOVDQU     Y12, 256(DI); \
	VPXOR       320(SI), Y5, Y5; \
	VMOVDQU     Y5, 320(DI); \
	VPXOR       384(SI), Y6, Y6; \
	VMOVDQU     Y6, 384(DI); \
	VPXOR       448(SI), Y7, Y7; \
	VMOVDQU     Y7, 448(DI)

// An empty chain slot.
#define NOCHAIN
