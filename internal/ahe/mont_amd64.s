#include "textflag.h"

// func montMulADX(z, x, y, n, t *big.Word, k int, n0 big.Word)
//
// z = x*y*R^-1 mod n for k-word x, y < n and R = 2^(64k): one CIOS
// Montgomery multiplication (Koç, Acar and Kaliski 1996). Row i adds
// x*y[i] into the k+2-word accumulator t, then m*n for m = t[0]*n0,
// which zeroes t[0], and shifts t down one word as it stores. Each
// product word runs two carry chains: ADCX adds the previous word's
// high half (CF), ADOX adds the accumulator word (OF). The inner loops
// are unrolled eight words and walk base+offset cursors (an indexed
// operand costs MULX, ADOX and the store an extra micro-op each: 30%
// slower at k = 16). A row enters the unrolled body at step
// s0 = (-k) mod 8, its cursors backed up s0 words, so every k >= 1 is
// covered, and the loop control (LEAQ, MOVQ, JCXZQ, JMP) leaves both
// flags alone. After k rows, t < 2n, and z is t or t - n.
//
// t must have room for words t[-1] .. t[k+1]: the reduction's first
// word, always zero, is stored at t[-1]. z may alias x or y: they are
// last read before z is first written.
//
// Registers: DX the row's multiplier (y[i], then m); SI, DI and R8 the
// cursors into x, n and t; CX the groups left in the row, then the
// JCXZQ operand; R9 the low word; R10 and R11 the alternating high
// words; R12 = &y[i]; R13 the rows left; R14 = n0; R15 the groups per
// row, (k + s0)/8; AX = s0; BX = 8*s0, the cursors' back-up in bytes.

// MULSTEP: t[j] += x[j]*DX, word j at byte offset off of the cursors.
#define MULSTEP(off, hi, carry) \
	MULXQ off(SI), R9, hi; \
	ADCXQ carry, R9;       \
	ADOXQ off(R8), R9;     \
	MOVQ  R9, off(R8)

// REDSTEP: t[j-1] = t[j] + n[j]*DX, word j at byte offset off.
#define REDSTEP(off, hi, carry) \
	MULXQ off(DI), R9, hi; \
	ADCXQ carry, R9;       \
	ADOXQ off(R8), R9;     \
	MOVQ  R9, (off-8)(R8)

// ENTER clears both carry flags and the high words and jumps to entry
// l0 + s0. Only MOVQ, LEAQ, JCXZQ and JMP follow the XORQ. JCXZQ
// reaches 127 bytes, so the entries sit right after ENTER: each loads
// the group count and jumps to its step. (An entry that only jumped
// would not do: the assembler retargets a branch to a JMP at the JMP's
// own target.)
#define ENTER(l0, l1, l2, l3, l4, l5, l6, l7) \
	XORQ  R10, R10;   \
	XORQ  R11, R11;   \
	MOVQ  AX, CX;     \
	JCXZQ l0;         \
	LEAQ  -1(CX), CX; \
	JCXZQ l1;         \
	LEAQ  -1(CX), CX; \
	JCXZQ l2;         \
	LEAQ  -1(CX), CX; \
	JCXZQ l3;         \
	LEAQ  -1(CX), CX; \
	JCXZQ l4;         \
	LEAQ  -1(CX), CX; \
	JCXZQ l5;         \
	LEAQ  -1(CX), CX; \
	JCXZQ l6;         \
	JMP   l7

TEXT ·montMulADX(SB), NOSPLIT, $0-56
	MOVQ y+16(FP), R12
	MOVQ k+40(FP), R13
	MOVQ n0+48(FP), R14
	MOVQ R13, AX
	NEGQ AX
	ANDQ $7, AX
	LEAQ (AX*8), BX
	MOVQ R13, R15
	ADDQ AX, R15
	SHRQ $3, R15

	// t[0..k] = 0; each row's product sets t[k+1].
	MOVQ t+32(FP), R8
	MOVQ R13, CX
	XORQ R9, R9

zero:
	MOVQ R9, (R8)
	LEAQ 8(R8), R8
	DECQ CX
	JGE  zero

row:
	MOVQ (R12), DX
	MOVQ x+8(FP), SI
	SUBQ BX, SI
	MOVQ t+32(FP), R8
	SUBQ BX, R8
	ENTER(mulIn0, mulIn1, mulIn2, mulIn3, mulIn4, mulIn5, mulIn6, mulIn7)

mulIn0:
	MOVQ R15, CX
	JMP  mul0

mulIn1:
	MOVQ R15, CX
	JMP  mul1

mulIn2:
	MOVQ R15, CX
	JMP  mul2

mulIn3:
	MOVQ R15, CX
	JMP  mul3

mulIn4:
	MOVQ R15, CX
	JMP  mul4

mulIn5:
	MOVQ R15, CX
	JMP  mul5

mulIn6:
	MOVQ R15, CX
	JMP  mul6

mulIn7:
	MOVQ R15, CX
	JMP  mul7

	// The loop heads are aligned (the padding sits after a JMP and never
	// runs). The widths were also chosen so that the package's text
	// keeps its size mod 64 bytes: hash.sweepPair, linked after it,
	// reads 12% slower when it starts on a 64-byte line (DESIGN.md §5).
	PCALIGN $64

mul0:
	MULSTEP(0, R10, R11)

mul1:
	MULSTEP(8, R11, R10)

mul2:
	MULSTEP(16, R10, R11)

mul3:
	MULSTEP(24, R11, R10)

mul4:
	MULSTEP(32, R10, R11)

mul5:
	MULSTEP(40, R11, R10)

mul6:
	MULSTEP(48, R10, R11)

mul7:
	MULSTEP(56, R11, R10)
	LEAQ  64(SI), SI
	LEAQ  64(R8), R8
	LEAQ  -1(CX), CX
	JCXZQ mulTail
	JMP   mul0
mulTail:
	// CX = 0 and R8 = &t[k]. t[k] += hi + CF + OF (hi + CF cannot wrap:
	// a product's high word is at most 2^64 - 2); t[k+1] = the carry.
	ADCXQ CX, R11
	ADOXQ (R8), R11
	MOVQ  R11, (R8)
	ADOXQ CX, CX
	MOVQ  CX, 8(R8)

	// m = t[0]*n0 mod 2^64.
	MOVQ  t+32(FP), R8
	MOVQ  (R8), DX
	IMULQ R14, DX
	SUBQ  BX, R8
	MOVQ n+24(FP), DI
	SUBQ BX, DI
	ENTER(redIn0, redIn1, redIn2, redIn3, redIn4, redIn5, redIn6, redIn7)

redIn0:
	MOVQ R15, CX
	JMP  red0

redIn1:
	MOVQ R15, CX
	JMP  red1

redIn2:
	MOVQ R15, CX
	JMP  red2

redIn3:
	MOVQ R15, CX
	JMP  red3

redIn4:
	MOVQ R15, CX
	JMP  red4

redIn5:
	MOVQ R15, CX
	JMP  red5

redIn6:
	MOVQ R15, CX
	JMP  red6

redIn7:
	MOVQ R15, CX
	JMP  red7

	PCALIGN $32

red0:
	REDSTEP(0, R10, R11)

red1:
	REDSTEP(8, R11, R10)

red2:
	REDSTEP(16, R10, R11)

red3:
	REDSTEP(24, R11, R10)

red4:
	REDSTEP(32, R10, R11)

red5:
	REDSTEP(40, R11, R10)

red6:
	REDSTEP(48, R10, R11)

red7:
	REDSTEP(56, R11, R10)
	LEAQ  64(DI), DI
	LEAQ  64(R8), R8
	LEAQ  -1(CX), CX
	JCXZQ redTail
	JMP   red0
redTail:
	// CX = 0. t[k-1] = t[k] + hi + CF + OF; t[k] = t[k+1] + the carry.
	ADCXQ CX, R11
	ADOXQ (R8), R11
	MOVQ  R11, -8(R8)
	MOVQ  8(R8), R9
	ADOXQ CX, R9
	MOVQ  R9, (R8)

	ADDQ $8, R12
	DECQ R13
	JNZ  row

	// z = t - n, word by word, indexed from the ends R8 = &t[k],
	// DI = &n[k] and R9 = &z[k].
	MOVQ z+0(FP), R9
	MOVQ k+40(FP), R13
	LEAQ (R9)(R13*8), R9
	MOVQ R13, BX
	NEGQ BX
	XORQ R10, R10

sub:
	MOVQ  (R8)(BX*8), R10
	SBBQ  (DI)(BX*8), R10
	MOVQ  R10, (R9)(BX*8)
	LEAQ  1(BX), BX
	MOVQ  BX, CX
	JCXZQ subDone
	JMP   sub

subDone:
	// t[k] is 0 or 1: a borrow out of t[k] means t < n, so z = t.
	MOVQ (R8), R10
	SBBQ $0, R10
	JCC  done
	MOVQ R13, BX
	NEGQ BX

copy:
	MOVQ (R8)(BX*8), R10
	MOVQ R10, (R9)(BX*8)
	INCQ BX
	JNZ  copy

done:
	RET
