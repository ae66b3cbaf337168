#include "textflag.h"

// Almost-Montgomery multiplication in radix 2^52 on AVX-512 IFMA
// (Gueron and Krasnov, "Accelerating Big Integer Arithmetic Using Intel
// IFMA Extensions", ARITH 2016), on ymm registers only.
//
// func montMulIFMA3(z, x, y, n *big.Word, rows int, k0 big.Word)
// func montMulIFMA5(z, x, y, n *big.Word, rows int, k0 big.Word)
// func montMulIFMA3x2(z0, x0, y0, z1, x1, y1, n *big.Word, rows int, k0 big.Word)
// func montMulIFMA5x2(z0, x0, y0, z1, x1, y1, n *big.Word, rows int, k0 big.Word)
//
// z = x*y*2^(-52 rows) mod n, up to one n: every operand is 4B limbs of
// 52 bits, one per 64-bit word, B = 3 or 5 ymm blocks, the limbs from
// rows on zero; k0 = -n^-1 mod 2^52. For x, y < 2n and 4n <= 2^(52 rows),
// z < 2n, normalized to 52-bit limbs. The x2 forms run two independent
// products that share n, their rows interleaved.
//
// Row i keeps the accumulator A as a scalar digit 0 (s) and B ymm
// accumulators whose lane j >= 1 is digit j (lane 0 is stale):
//
//	y = (s + x0*y[i]) * k0 mod 2^52       (scalar, MULX and IMUL)
//	lanes += lo52(x*y[i]) + lo52(n*y)     (VPMADD52LUQ)
//	s = (s + x0*y[i] + n0*y) >> 52 + lane 1   (full MULX products)
//	lanes >>= one lane                     (VALIGNQ)
//	lanes += hi52(x*y[i]) + hi52(n*y)     (VPMADD52HUQ)
//
// so A becomes (A + x*y[i] + n*y) / 2^52 exactly. The scalar holds the
// digit that leaves the vector, so the row's only cross-domain hop on
// the critical path is VPEXTRQ of block 0's lane 1. Lanes grow by at
// most 2^54 a row, so none overflows before the final carry pass.
//
// Block 0 of each accumulator sits in Y0..Y15 so VPEXTRQ keeps its VEX
// form (the EVEX form needs AVX512DQ, which the CPUID gate does not
// ask for). The VPMADD52, VALIGNQ and GPR-broadcast forms are EVEX.
//
// Registers: CX the rows left; R12 (R13) the cursor into y (y1); SI
// (DI) x[0] (x1[0]); R8 (R9) s; R14 k0; R15 n[0]; AX, BX, DX, R10 and
// R11 scratch. Y28 is zero in the one-product form, Y30 in the pair.

// ROWHEAD computes the row's y from s and x0 into R10 (unmasked: the
// vector multipliers read only its low 52 bits) and the 128-bit
// s + x0*y[i] into BX:AX, and broadcasts y[i] and y.
#define ROWHEAD(s, a0, bp, BI, YY) \
	MOVQ         (bp), DX; \
	VPBROADCASTQ DX, BI;   \
	MULXQ        a0, AX, BX; \
	ADDQ         s, AX;    \
	ADCQ         $0, BX;   \
	MOVQ         AX, R10;  \
	IMULQ        R14, R10; \
	VPBROADCASTQ R10, YY

// ROWCARRY sets s = (BX:AX + n0*(y mod 2^52)) >> 52 + lane 1 of X0.
#define ROWCARRY(s, X0) \
	SHLQ    $12, R10;      \
	SHRQ    $12, R10;      \
	MOVQ    R10, DX;       \
	MULXQ   R15, R10, R11; \
	ADDQ    R10, AX;       \
	ADCQ    R11, BX;       \
	SHRQ    $52, BX, AX;   \
	VPEXTRQ $1, X0, R10;   \
	ADDQ    R10, AX;       \
	MOVQ    AX, s

#define ROW3(s, a0, bp, C0, X0, C1, C2, A0, A1, A2, BI, YY, ZERO) \
	ROWHEAD(s, a0, bp, BI, YY); \
	VPMADD52LUQ BI, A0, C0;     \
	VPMADD52LUQ YY, Y21, C0;    \
	VPMADD52LUQ BI, A1, C1;     \
	VPMADD52LUQ BI, A2, C2;     \
	VPMADD52LUQ YY, Y22, C1;    \
	VPMADD52LUQ YY, Y23, C2;    \
	ROWCARRY(s, X0);            \
	VALIGNQ     $1, C0, C1, C0; \
	VALIGNQ     $1, C1, C2, C1; \
	VALIGNQ     $1, C2, ZERO, C2; \
	VPMADD52HUQ BI, A0, C0;     \
	VPMADD52HUQ BI, A1, C1;     \
	VPMADD52HUQ BI, A2, C2;     \
	VPMADD52HUQ YY, Y21, C0;    \
	VPMADD52HUQ YY, Y22, C1;    \
	VPMADD52HUQ YY, Y23, C2

#define ROW5(s, a0, bp, C0, X0, C1, C2, C3, C4, A0, A1, A2, A3, A4, BI, YY, ZERO) \
	ROWHEAD(s, a0, bp, BI, YY); \
	VPMADD52LUQ BI, A0, C0;     \
	VPMADD52LUQ YY, Y21, C0;    \
	VPMADD52LUQ BI, A1, C1;     \
	VPMADD52LUQ BI, A2, C2;     \
	VPMADD52LUQ BI, A3, C3;     \
	VPMADD52LUQ BI, A4, C4;     \
	VPMADD52LUQ YY, Y22, C1;    \
	VPMADD52LUQ YY, Y23, C2;    \
	VPMADD52LUQ YY, Y24, C3;    \
	VPMADD52LUQ YY, Y25, C4;    \
	ROWCARRY(s, X0);            \
	VALIGNQ     $1, C0, C1, C0; \
	VALIGNQ     $1, C1, C2, C1; \
	VALIGNQ     $1, C2, C3, C2; \
	VALIGNQ     $1, C3, C4, C3; \
	VALIGNQ     $1, C4, ZERO, C4; \
	VPMADD52HUQ BI, A0, C0;     \
	VPMADD52HUQ BI, A1, C1;     \
	VPMADD52HUQ BI, A2, C2;     \
	VPMADD52HUQ BI, A3, C3;     \
	VPMADD52HUQ BI, A4, C4;     \
	VPMADD52HUQ YY, Y21, C0;    \
	VPMADD52HUQ YY, Y22, C1;    \
	VPMADD52HUQ YY, Y23, C2;    \
	VPMADD52HUQ YY, Y24, C3;    \
	VPMADD52HUQ YY, Y25, C4

// NORM stores s over z[0] and carries z[0..rows) into 52-bit limbs.
// The carry out of the top limb is zero: A < 2n < 2^(52 rows).
#define NORM(z, s, rows, label) \
	MOVQ s, (z);        \
	MOVQ rows, CX;      \
	XORQ AX, AX;        \
label:                  \
	MOVQ (z), R10;      \
	ADDQ AX, R10;       \
	MOVQ R10, AX;       \
	SHRQ $52, AX;       \
	SHLQ $12, R10;      \
	SHRQ $12, R10;      \
	MOVQ R10, (z);      \
	ADDQ $8, z;         \
	DECQ CX;            \
	JNZ  label

TEXT ·montMulIFMA3(SB), NOSPLIT, $0-48
	MOVQ      x+8(FP), SI
	MOVQ      y+16(FP), R12
	MOVQ      n+24(FP), DI
	MOVQ      rows+32(FP), CX
	MOVQ      k0+40(FP), R14
	VMOVDQU64 0(SI), Y16
	VMOVDQU64 32(SI), Y17
	VMOVDQU64 64(SI), Y18
	VMOVDQU64 0(DI), Y21
	VMOVDQU64 32(DI), Y22
	VMOVDQU64 64(DI), Y23
	MOVQ      (SI), SI
	MOVQ      (DI), R15
	VPXORQ    Y0, Y0, Y0
	VPXORQ    Y1, Y1, Y1
	VPXORQ    Y2, Y2, Y2
	VPXORQ    Y28, Y28, Y28
	XORQ      R8, R8

row3:
	ROW3(R8, SI, R12, Y0, X0, Y1, Y2, Y16, Y17, Y18, Y26, Y27, Y28)
	ADDQ $8, R12
	DECQ CX
	JNZ  row3

	MOVQ      z+0(FP), DI
	VMOVDQU64 Y0, 0(DI)
	VMOVDQU64 Y1, 32(DI)
	VMOVDQU64 Y2, 64(DI)
	VZEROUPPER
	NORM(DI, R8, rows+32(FP), norm3)
	RET

TEXT ·montMulIFMA5(SB), NOSPLIT, $0-48
	MOVQ      x+8(FP), SI
	MOVQ      y+16(FP), R12
	MOVQ      n+24(FP), DI
	MOVQ      rows+32(FP), CX
	MOVQ      k0+40(FP), R14
	VMOVDQU64 0(SI), Y16
	VMOVDQU64 32(SI), Y17
	VMOVDQU64 64(SI), Y18
	VMOVDQU64 96(SI), Y19
	VMOVDQU64 128(SI), Y20
	VMOVDQU64 0(DI), Y21
	VMOVDQU64 32(DI), Y22
	VMOVDQU64 64(DI), Y23
	VMOVDQU64 96(DI), Y24
	VMOVDQU64 128(DI), Y25
	MOVQ      (SI), SI
	MOVQ      (DI), R15
	VPXORQ    Y0, Y0, Y0
	VPXORQ    Y1, Y1, Y1
	VPXORQ    Y2, Y2, Y2
	VPXORQ    Y3, Y3, Y3
	VPXORQ    Y4, Y4, Y4
	VPXORQ    Y28, Y28, Y28
	XORQ      R8, R8

row5:
	ROW5(R8, SI, R12, Y0, X0, Y1, Y2, Y3, Y4, Y16, Y17, Y18, Y19, Y20, Y26, Y27, Y28)
	ADDQ $8, R12
	DECQ CX
	JNZ  row5

	MOVQ      z+0(FP), DI
	VMOVDQU64 Y0, 0(DI)
	VMOVDQU64 Y1, 32(DI)
	VMOVDQU64 Y2, 64(DI)
	VMOVDQU64 Y3, 96(DI)
	VMOVDQU64 Y4, 128(DI)
	VZEROUPPER
	NORM(DI, R8, rows+32(FP), norm5)
	RET

TEXT ·montMulIFMA3x2(SB), NOSPLIT, $0-72
	MOVQ      x0+8(FP), SI
	MOVQ      x1+32(FP), DI
	MOVQ      y0+16(FP), R12
	MOVQ      y1+40(FP), R13
	MOVQ      n+48(FP), AX
	MOVQ      rows+56(FP), CX
	MOVQ      k0+64(FP), R14
	VMOVDQU64 0(SI), Y10
	VMOVDQU64 32(SI), Y11
	VMOVDQU64 64(SI), Y12
	VMOVDQU64 0(DI), Y16
	VMOVDQU64 32(DI), Y17
	VMOVDQU64 64(DI), Y18
	VMOVDQU64 0(AX), Y21
	VMOVDQU64 32(AX), Y22
	VMOVDQU64 64(AX), Y23
	MOVQ      (SI), SI
	MOVQ      (DI), DI
	MOVQ      (AX), R15
	VPXORQ    Y0, Y0, Y0
	VPXORQ    Y1, Y1, Y1
	VPXORQ    Y2, Y2, Y2
	VPXORQ    Y5, Y5, Y5
	VPXORQ    Y6, Y6, Y6
	VPXORQ    Y7, Y7, Y7
	VPXORQ    Y30, Y30, Y30
	XORQ      R8, R8
	XORQ      R9, R9

row3x2:
	ROW3(R8, SI, R12, Y0, X0, Y1, Y2, Y10, Y11, Y12, Y26, Y28, Y30)
	ROW3(R9, DI, R13, Y5, X5, Y6, Y7, Y16, Y17, Y18, Y27, Y29, Y30)
	ADDQ $8, R12
	ADDQ $8, R13
	DECQ CX
	JNZ  row3x2

	MOVQ      z0+0(FP), DI
	VMOVDQU64 Y0, 0(DI)
	VMOVDQU64 Y1, 32(DI)
	VMOVDQU64 Y2, 64(DI)
	MOVQ      z1+24(FP), SI
	VMOVDQU64 Y5, 0(SI)
	VMOVDQU64 Y6, 32(SI)
	VMOVDQU64 Y7, 64(SI)
	VZEROUPPER
	NORM(DI, R8, rows+56(FP), norm3a)
	NORM(SI, R9, rows+56(FP), norm3b)
	RET

TEXT ·montMulIFMA5x2(SB), NOSPLIT, $0-72
	MOVQ      x0+8(FP), SI
	MOVQ      x1+32(FP), DI
	MOVQ      y0+16(FP), R12
	MOVQ      y1+40(FP), R13
	MOVQ      n+48(FP), AX
	MOVQ      rows+56(FP), CX
	MOVQ      k0+64(FP), R14
	VMOVDQU64 0(SI), Y10
	VMOVDQU64 32(SI), Y11
	VMOVDQU64 64(SI), Y12
	VMOVDQU64 96(SI), Y13
	VMOVDQU64 128(SI), Y14
	VMOVDQU64 0(DI), Y16
	VMOVDQU64 32(DI), Y17
	VMOVDQU64 64(DI), Y18
	VMOVDQU64 96(DI), Y19
	VMOVDQU64 128(DI), Y20
	VMOVDQU64 0(AX), Y21
	VMOVDQU64 32(AX), Y22
	VMOVDQU64 64(AX), Y23
	VMOVDQU64 96(AX), Y24
	VMOVDQU64 128(AX), Y25
	MOVQ      (SI), SI
	MOVQ      (DI), DI
	MOVQ      (AX), R15
	VPXORQ    Y0, Y0, Y0
	VPXORQ    Y1, Y1, Y1
	VPXORQ    Y2, Y2, Y2
	VPXORQ    Y3, Y3, Y3
	VPXORQ    Y4, Y4, Y4
	VPXORQ    Y5, Y5, Y5
	VPXORQ    Y6, Y6, Y6
	VPXORQ    Y7, Y7, Y7
	VPXORQ    Y8, Y8, Y8
	VPXORQ    Y9, Y9, Y9
	VPXORQ    Y30, Y30, Y30
	XORQ      R8, R8
	XORQ      R9, R9

row5x2:
	ROW5(R8, SI, R12, Y0, X0, Y1, Y2, Y3, Y4, Y10, Y11, Y12, Y13, Y14, Y26, Y28, Y30)
	ROW5(R9, DI, R13, Y5, X5, Y6, Y7, Y8, Y9, Y16, Y17, Y18, Y19, Y20, Y27, Y29, Y30)
	ADDQ $8, R12
	ADDQ $8, R13
	DECQ CX
	JNZ  row5x2

	MOVQ      z0+0(FP), DI
	VMOVDQU64 Y0, 0(DI)
	VMOVDQU64 Y1, 32(DI)
	VMOVDQU64 Y2, 64(DI)
	VMOVDQU64 Y3, 96(DI)
	VMOVDQU64 Y4, 128(DI)
	MOVQ      z1+24(FP), SI
	VMOVDQU64 Y5, 0(SI)
	VMOVDQU64 Y6, 32(SI)
	VMOVDQU64 Y7, 64(SI)
	VMOVDQU64 Y8, 96(SI)
	VMOVDQU64 Y9, 128(SI)
	VZEROUPPER
	NORM(DI, R8, rows+56(FP), norm5a)
	NORM(SI, R9, rows+56(FP), norm5b)
	RET
