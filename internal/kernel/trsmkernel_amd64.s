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
