#include "textflag.h"

// func hits8x8(a, c, w *uint64, groups int, keys *[8]uint64, counts *int)
//
// counts[j] += how many of the groups*8 lanes (a[i], c[i], w[i]) key j
// hits, a[i]*keys[j] + c[i] <= w[i] mod 2^64, for j in [0, 8); groups
// may be 0, which adds nothing. A pass
// loads eight lanes' words into Z24-Z26 and tests them against the
// eight broadcast keys in Z16-Z23: per key one multiply, one add, one
// unsigned compare into a mask, and a masked subtraction of -1 into the
// key's accumulator Z0-Z7. After the last pass a transpose-and-add tree
// sums each accumulator's eight lanes into lane j of one register,
// which is added to counts[0..8) at once. AVX512F and AVX512DQ
// (VPMULLQ).
#define KEY(k, acc, mask) \
	VPMULLQ   k, Z24, Z27;      \
	VPADDQ    Z25, Z27, Z27;    \
	VPCMPUQ   $2, Z26, Z27, mask; \
	VPSUBQ    Z31, acc, mask, acc

TEXT ·hits8x8(SB), NOSPLIT, $0-48
	MOVQ a+0(FP), AX
	MOVQ c+8(FP), BX
	MOVQ w+16(FP), CX
	MOVQ groups+24(FP), DX
	MOVQ keys+32(FP), SI
	MOVQ counts+40(FP), DI

	VPBROADCASTQ 0(SI), Z16
	VPBROADCASTQ 8(SI), Z17
	VPBROADCASTQ 16(SI), Z18
	VPBROADCASTQ 24(SI), Z19
	VPBROADCASTQ 32(SI), Z20
	VPBROADCASTQ 40(SI), Z21
	VPBROADCASTQ 48(SI), Z22
	VPBROADCASTQ 56(SI), Z23
	VPTERNLOGD   $0xff, Z31, Z31, Z31
	VPXORQ       Z0, Z0, Z0
	VPXORQ       Z1, Z1, Z1
	VPXORQ       Z2, Z2, Z2
	VPXORQ       Z3, Z3, Z3
	VPXORQ       Z4, Z4, Z4
	VPXORQ       Z5, Z5, Z5
	VPXORQ       Z6, Z6, Z6
	VPXORQ       Z7, Z7, Z7
	TESTQ        DX, DX
	JZ           sum

pass:
	VMOVDQU64 (AX), Z24
	VMOVDQU64 (BX), Z25
	VMOVDQU64 (CX), Z26
	KEY(Z16, Z0, K1)
	KEY(Z17, Z1, K2)
	KEY(Z18, Z2, K3)
	KEY(Z19, Z3, K4)
	KEY(Z20, Z4, K5)
	KEY(Z21, Z5, K6)
	KEY(Z22, Z6, K7)
	KEY(Z23, Z7, K1)
	ADDQ $64, AX
	ADDQ $64, BX
	ADDQ $64, CX
	DECQ DX
	JNZ  pass

sum:
	// Each 128-bit lane of Z8 holds accumulator 0's and 1's sums of
	// that lane's two words; likewise Z9 for 2 and 3, Z10 for 4 and 5,
	// Z11 for 6 and 7.
	VPUNPCKLQDQ Z1, Z0, Z8
	VPUNPCKHQDQ Z1, Z0, Z12
	VPADDQ      Z12, Z8, Z8
	VPUNPCKLQDQ Z3, Z2, Z9
	VPUNPCKHQDQ Z3, Z2, Z12
	VPADDQ      Z12, Z9, Z9
	VPUNPCKLQDQ Z5, Z4, Z10
	VPUNPCKHQDQ Z5, Z4, Z12
	VPADDQ      Z12, Z10, Z10
	VPUNPCKLQDQ Z7, Z6, Z11
	VPUNPCKHQDQ Z7, Z6, Z12
	VPADDQ      Z12, Z11, Z11

	// Even 128-bit lanes plus odd ones: Z12 holds 0-1, 0-1, 2-3, 2-3
	// and Z14 4-5, 4-5, 6-7, 6-7, each half a sum.
	VSHUFI64X2 $0x88, Z9, Z8, Z12
	VSHUFI64X2 $0xdd, Z9, Z8, Z13
	VPADDQ     Z13, Z12, Z12
	VSHUFI64X2 $0x88, Z11, Z10, Z14
	VSHUFI64X2 $0xdd, Z11, Z10, Z13
	VPADDQ     Z13, Z14, Z14

	// Once more: word j of Z8 is accumulator j's whole sum.
	VSHUFI64X2 $0x88, Z14, Z12, Z8
	VSHUFI64X2 $0xdd, Z14, Z12, Z9
	VPADDQ     Z9, Z8, Z8
	VPADDQ     (DI), Z8, Z8
	VMOVDQU64  Z8, (DI)
	VZEROUPPER
	RET
