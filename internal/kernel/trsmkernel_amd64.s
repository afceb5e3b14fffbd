// AVX2 tile kernel of the unit-lower forward solve.
// See trsmkernel_amd64.go for the data layout and the rounding
// contract (VMULPD+VSUBPD, never FMA).

#include "textflag.h"

// TRANSPOSE4 turns four registers holding one 4-vector each (a0..a3)
// into the four registers holding the transposed 4x4 block (r0..r3),
// using t0..t3 as scratch. With columns in, rows come out, and back.
#define TRANSPOSE4(a0, a1, a2, a3, t0, t1, t2, t3, r0, r1, r2, r3) \
	VUNPCKLPD  a1, a0, t0       \
	VUNPCKHPD  a1, a0, t1       \
	VUNPCKLPD  a3, a2, t2       \
	VUNPCKHPD  a3, a2, t3       \
	VPERM2F128 $0x20, t2, t0, r0 \
	VPERM2F128 $0x20, t3, t1, r1 \
	VPERM2F128 $0x31, t2, t0, r2 \
	VPERM2F128 $0x31, t3, t1, r3

// STEP subtracts (broadcast of the multiplier at off(SI)) * x from row.
#define STEP(off, x, row) \
	VBROADCASTSD off(SI), Y9 \
	VMULPD       x, Y9, Y10  \
	VSUBPD       Y10, row, row

// func trsmLowerUnitTile8x4(kprev int, lp, xp, c *float64, ldc int)
//
// Solves rows r0..r0+7 (r0 = kprev) of four right-hand-side columns:
// Y0..Y7 hold the tile transposed, one register per row with the four
// columns in its lanes, so every multiplier is a broadcast from the
// packed triangle and every solved row a whole register — no lane
// extraction, no masking.
//
//	for k < kprev:       row_i -= lp[k*8+i] * xp[k*4 .. k*4+3]   (i = 0..7)
//	for t = 0..6, i > t: row_i -= lp[(kprev+t)*8+i] * row_t
//
// each multiply and subtract rounded separately. The solved rows are
// appended to xp (rows kprev..kprev+7) for the row blocks below and
// written back, transposed again, to the tile at c.
TEXT ·trsmLowerUnitTile8x4(SB), NOSPLIT, $0-40
	MOVQ kprev+0(FP), CX
	MOVQ lp+8(FP), SI
	MOVQ xp+16(FP), DI
	MOVQ c+24(FP), DX
	MOVQ ldc+32(FP), R8
	SHLQ $3, R8            // ldc in bytes

	LEAQ (DX)(R8*1), R9    // column 1
	LEAQ (DX)(R8*2), R10   // column 2
	LEAQ (R10)(R8*1), R11  // column 3

	// Columns in (rows 0-3 in Y8..Y11, rows 4-7 in Y12..Y15), rows out.
	VMOVUPD (DX), Y8
	VMOVUPD (R9), Y9
	VMOVUPD (R10), Y10
	VMOVUPD (R11), Y11
	VMOVUPD 32(DX), Y12
	VMOVUPD 32(R9), Y13
	VMOVUPD 32(R10), Y14
	VMOVUPD 32(R11), Y15
	TRANSPOSE4(Y8, Y9, Y10, Y11, Y4, Y5, Y6, Y7, Y0, Y1, Y2, Y3)
	TRANSPOSE4(Y12, Y13, Y14, Y15, Y8, Y9, Y10, Y11, Y4, Y5, Y6, Y7)

	// Updates from the rows solved by earlier row blocks.
	TESTQ CX, CX
	JZ    tri

prev:
	VMOVUPD (DI), Y8
	STEP(0, Y8, Y0)
	STEP(8, Y8, Y1)
	STEP(16, Y8, Y2)
	STEP(24, Y8, Y3)
	STEP(32, Y8, Y4)
	STEP(40, Y8, Y5)
	STEP(48, Y8, Y6)
	STEP(56, Y8, Y7)
	ADDQ $64, SI
	ADDQ $32, DI
	DECQ CX
	JNZ  prev

tri:
	// The tile's own triangle; SI is at its first column, DI at the
	// tile's first row of xp.
	STEP(8, Y0, Y1)
	STEP(16, Y0, Y2)
	STEP(24, Y0, Y3)
	STEP(32, Y0, Y4)
	STEP(40, Y0, Y5)
	STEP(48, Y0, Y6)
	STEP(56, Y0, Y7)

	STEP(64+16, Y1, Y2)
	STEP(64+24, Y1, Y3)
	STEP(64+32, Y1, Y4)
	STEP(64+40, Y1, Y5)
	STEP(64+48, Y1, Y6)
	STEP(64+56, Y1, Y7)

	STEP(128+24, Y2, Y3)
	STEP(128+32, Y2, Y4)
	STEP(128+40, Y2, Y5)
	STEP(128+48, Y2, Y6)
	STEP(128+56, Y2, Y7)

	STEP(192+32, Y3, Y4)
	STEP(192+40, Y3, Y5)
	STEP(192+48, Y3, Y6)
	STEP(192+56, Y3, Y7)

	STEP(256+40, Y4, Y5)
	STEP(256+48, Y4, Y6)
	STEP(256+56, Y4, Y7)

	STEP(320+48, Y5, Y6)
	STEP(320+56, Y5, Y7)

	STEP(384+56, Y6, Y7)

	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	VMOVUPD Y4, 128(DI)
	VMOVUPD Y5, 160(DI)
	VMOVUPD Y6, 192(DI)
	VMOVUPD Y7, 224(DI)

	// Rows in, columns out.
	TRANSPOSE4(Y0, Y1, Y2, Y3, Y8, Y9, Y10, Y11, Y12, Y13, Y14, Y15)
	VMOVUPD Y12, (DX)
	VMOVUPD Y13, (R9)
	VMOVUPD Y14, (R10)
	VMOVUPD Y15, (R11)
	TRANSPOSE4(Y4, Y5, Y6, Y7, Y8, Y9, Y10, Y11, Y12, Y13, Y14, Y15)
	VMOVUPD Y12, 32(DX)
	VMOVUPD Y13, 32(R9)
	VMOVUPD Y14, 32(R10)
	VMOVUPD Y15, 32(R11)
	VZEROUPPER
	RET

// SWEEP8 subtracts x_k * c_k from the eight accumulators Y0..Y7 of a
// 32-row block: R10 points at x_k's first row, Y8 holds c_k.
#define SWEEP8 \
	VMULPD (R10), Y8, Y9     \
	VSUBPD Y9, Y0, Y0        \
	VMULPD 32(R10), Y8, Y10  \
	VSUBPD Y10, Y1, Y1       \
	VMULPD 64(R10), Y8, Y11  \
	VSUBPD Y11, Y2, Y2       \
	VMULPD 96(R10), Y8, Y12  \
	VSUBPD Y12, Y3, Y3       \
	VMULPD 128(R10), Y8, Y9  \
	VSUBPD Y9, Y4, Y4        \
	VMULPD 160(R10), Y8, Y10 \
	VSUBPD Y10, Y5, Y5       \
	VMULPD 192(R10), Y8, Y11 \
	VSUBPD Y11, Y6, Y6       \
	VMULPD 224(R10), Y8, Y12 \
	VSUBPD Y12, Y7, Y7

// func trsmRightSweepAVX2(m, j int, coef *float64, cs int, inv float64, b *float64, ldb int)
//
// For rows i < m of column j of b (leading dimension ldb):
//
//	b[j*ldb+i] = (b[j*ldb+i] - b[0*ldb+i]*coef[0] - ... - b[(j-1)*ldb+i]*coef[(j-1)*cs]) * inv
//
// k ascending, each multiply and subtract rounded separately. Rows go
// 32 at a time, held in Y0..Y7 through the whole k loop: eight
// independent subtract chains, so the loop runs at the multiply and
// subtract throughput rather than at one chain's latency. The ragged
// rows go 4 at a time in Y0, then one at a time in X0, VEX-encoded like
// every other tail in this package.
TEXT ·trsmRightSweepAVX2(SB), NOSPLIT, $0-56
	MOVQ         m+0(FP), BX
	MOVQ         j+8(FP), DX
	MOVQ         coef+16(FP), SI
	MOVQ         cs+24(FP), R13
	SHLQ         $3, R13        // coefficient stride in bytes
	VBROADCASTSD inv+32(FP), Y15
	MOVQ         b+40(FP), DI   // row i0 of column 0
	MOVQ         ldb+48(FP), R8
	SHLQ         $3, R8         // ldb in bytes
	MOVQ         DX, R9
	IMULQ        R8, R9
	ADDQ         DI, R9         // row i0 of column j

block32:
	CMPQ    BX, $32
	JL      block4
	VMOVUPD (R9), Y0
	VMOVUPD 32(R9), Y1
	VMOVUPD 64(R9), Y2
	VMOVUPD 96(R9), Y3
	VMOVUPD 128(R9), Y4
	VMOVUPD 160(R9), Y5
	VMOVUPD 192(R9), Y6
	VMOVUPD 224(R9), Y7
	MOVQ    DI, R10
	MOVQ    SI, R11
	MOVQ    DX, R12
	TESTQ   R12, R12
	JZ      scale32

k32:
	VBROADCASTSD (R11), Y8
	SWEEP8
	ADDQ         R8, R10
	ADDQ         R13, R11
	DECQ         R12
	JNZ          k32

scale32:
	VMULPD  Y15, Y0, Y0
	VMULPD  Y15, Y1, Y1
	VMULPD  Y15, Y2, Y2
	VMULPD  Y15, Y3, Y3
	VMULPD  Y15, Y4, Y4
	VMULPD  Y15, Y5, Y5
	VMULPD  Y15, Y6, Y6
	VMULPD  Y15, Y7, Y7
	VMOVUPD Y0, (R9)
	VMOVUPD Y1, 32(R9)
	VMOVUPD Y2, 64(R9)
	VMOVUPD Y3, 96(R9)
	VMOVUPD Y4, 128(R9)
	VMOVUPD Y5, 160(R9)
	VMOVUPD Y6, 192(R9)
	VMOVUPD Y7, 224(R9)
	ADDQ    $256, DI
	ADDQ    $256, R9
	SUBQ    $32, BX
	JMP     block32

block4:
	CMPQ    BX, $4
	JL      row1
	VMOVUPD (R9), Y0
	MOVQ    DI, R10
	MOVQ    SI, R11
	MOVQ    DX, R12
	TESTQ   R12, R12
	JZ      scale4

k4:
	VBROADCASTSD (R11), Y8
	VMULPD       (R10), Y8, Y9
	VSUBPD       Y9, Y0, Y0
	ADDQ         R8, R10
	ADDQ         R13, R11
	DECQ         R12
	JNZ          k4

scale4:
	VMULPD  Y15, Y0, Y0
	VMOVUPD Y0, (R9)
	ADDQ    $32, DI
	ADDQ    $32, R9
	SUBQ    $4, BX
	JMP     block4

row1:
	TESTQ  BX, BX
	JZ     done
	VMOVSD (R9), X0
	MOVQ   DI, R10
	MOVQ   SI, R11
	MOVQ   DX, R12
	TESTQ  R12, R12
	JZ     scale1

k1:
	VMOVSD (R11), X8
	VMULSD (R10), X8, X9
	VSUBSD X9, X0, X0
	ADDQ   R8, R10
	ADDQ   R13, R11
	DECQ   R12
	JNZ    k1

scale1:
	VMULSD X15, X0, X0
	VMOVSD X0, (R9)
	ADDQ   $8, DI
	ADDQ   $8, R9
	DECQ   BX
	JMP    row1

done:
	VZEROUPPER
	RET
