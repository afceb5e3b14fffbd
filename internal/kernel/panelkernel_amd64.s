// AVX2 panel-update kernel of the blocked GETRF.
// See panelkernel_amd64.go for the register-tile layout and the
// rationale for VMULPD+VSUBPD instead of FMA (bit-identity with the
// scalar rank-1 updates of Getf2).

#include "textflag.h"

// func panelKernel8x4(w int, ap, bp, c *float64, ldc int)
//
// For l = 0..w-1 in order: c[j*ldc+i] -= ap[l*8+i] * bp[l*4+j],
// i in 0..7, j in 0..3, every step rounded as a separate multiply and
// subtract. Y0/Y1 hold C column 0 (rows 0-3 / 4-7), Y2/Y3 column 1,
// Y4/Y5 column 2, Y6/Y7 column 3; Y8/Y9 are the A sliver, Y10 the
// rotating B broadcast and Y11 the product temporary.
TEXT ·panelKernel8x4(SB), NOSPLIT, $0-40
	MOVQ w+0(FP), CX
	MOVQ ap+8(FP), SI
	MOVQ bp+16(FP), DI
	MOVQ c+24(FP), DX
	MOVQ ldc+32(FP), R8
	SHLQ $3, R8            // ldc in bytes

	LEAQ (DX)(R8*1), R9    // column 1
	LEAQ (DX)(R8*2), R10   // column 2
	LEAQ (R10)(R8*1), R11  // column 3

	// Load the 8x4 C tile into registers.
	VMOVUPD (DX), Y0
	VMOVUPD 32(DX), Y1
	VMOVUPD (R9), Y2
	VMOVUPD 32(R9), Y3
	VMOVUPD (R10), Y4
	VMOVUPD 32(R10), Y5
	VMOVUPD (R11), Y6
	VMOVUPD 32(R11), Y7

loop:
	VMOVUPD      (SI), Y8
	VMOVUPD      32(SI), Y9

	VBROADCASTSD (DI), Y10
	VMULPD       Y8, Y10, Y11
	VSUBPD       Y11, Y0, Y0
	VMULPD       Y9, Y10, Y11
	VSUBPD       Y11, Y1, Y1

	VBROADCASTSD 8(DI), Y10
	VMULPD       Y8, Y10, Y11
	VSUBPD       Y11, Y2, Y2
	VMULPD       Y9, Y10, Y11
	VSUBPD       Y11, Y3, Y3

	VBROADCASTSD 16(DI), Y10
	VMULPD       Y8, Y10, Y11
	VSUBPD       Y11, Y4, Y4
	VMULPD       Y9, Y10, Y11
	VSUBPD       Y11, Y5, Y5

	VBROADCASTSD 24(DI), Y10
	VMULPD       Y8, Y10, Y11
	VSUBPD       Y11, Y6, Y6
	VMULPD       Y9, Y10, Y11
	VSUBPD       Y11, Y7, Y7

	ADDQ $64, SI
	ADDQ $32, DI
	DECQ CX
	JNZ  loop

	VMOVUPD Y0, (DX)
	VMOVUPD Y1, 32(DX)
	VMOVUPD Y2, (R9)
	VMOVUPD Y3, 32(R9)
	VMOVUPD Y4, (R10)
	VMOVUPD Y5, 32(R10)
	VMOVUPD Y6, (R11)
	VMOVUPD Y7, 32(R11)
	VZEROUPPER
	RET

// func rank1SubAVX2(n int, c, l *float64, u float64)
//
// c[i] -= l[i]*u for i in 0..n-1, multiply and subtract rounded
// separately (VMULPD+VSUBPD / VMULSD+VSUBSD — bit-identical to the
// portable loop). Unrolled 8-wide; the scalar tail is VEX-encoded too:
// it runs with the broadcast's upper YMM halves dirty, where every
// legacy-SSE instruction would pay an SSE/AVX transition.
TEXT ·rank1SubAVX2(SB), NOSPLIT, $0-32
	MOVQ         n+0(FP), CX
	MOVQ         c+8(FP), DX
	MOVQ         l+16(FP), SI
	VBROADCASTSD u+24(FP), Y3

	CMPQ CX, $8
	JL   tail4

loop8:
	VMOVUPD (SI), Y0
	VMOVUPD 32(SI), Y4
	VMULPD  Y0, Y3, Y1
	VMULPD  Y4, Y3, Y5
	VMOVUPD (DX), Y2
	VMOVUPD 32(DX), Y6
	VSUBPD  Y1, Y2, Y2
	VSUBPD  Y5, Y6, Y6
	VMOVUPD Y2, (DX)
	VMOVUPD Y6, 32(DX)
	ADDQ    $64, SI
	ADDQ    $64, DX
	SUBQ    $8, CX
	CMPQ    CX, $8
	JGE     loop8

tail4:
	CMPQ CX, $4
	JL   tail1
	VMOVUPD (SI), Y0
	VMULPD  Y0, Y3, Y1
	VMOVUPD (DX), Y2
	VSUBPD  Y1, Y2, Y2
	VMOVUPD Y2, (DX)
	ADDQ    $32, SI
	ADDQ    $32, DX
	SUBQ    $4, CX

tail1:
	TESTQ CX, CX
	JZ    done
scalar:
	VMOVSD (SI), X0
	VMULSD X3, X0, X0
	VMOVSD (DX), X1
	VSUBSD X0, X1, X1
	VMOVSD X1, (DX)
	ADDQ   $8, SI
	ADDQ   $8, DX
	DECQ   CX
	JNZ    scalar

done:
	VZEROUPPER
	RET

// func scaleVecAVX2(n int, c *float64, alpha float64)
//
// c[i] *= alpha for i in 0..n-1 (the micro-panel's L-column scaling);
// VEX-encoded scalar tail for the same reason as rank1SubAVX2's.
TEXT ·scaleVecAVX2(SB), NOSPLIT, $0-24
	MOVQ         n+0(FP), CX
	MOVQ         c+8(FP), DX
	VBROADCASTSD alpha+16(FP), Y3

	CMPQ CX, $8
	JL   stail4

sloop8:
	VMOVUPD (DX), Y0
	VMOVUPD 32(DX), Y1
	VMULPD  Y0, Y3, Y0
	VMULPD  Y1, Y3, Y1
	VMOVUPD Y0, (DX)
	VMOVUPD Y1, 32(DX)
	ADDQ    $64, DX
	SUBQ    $8, CX
	CMPQ    CX, $8
	JGE     sloop8

stail4:
	CMPQ CX, $4
	JL   stail1
	VMOVUPD (DX), Y0
	VMULPD  Y0, Y3, Y0
	VMOVUPD Y0, (DX)
	ADDQ    $32, DX
	SUBQ    $4, CX

stail1:
	TESTQ CX, CX
	JZ    sdone
sscalar:
	VMOVSD (DX), X0
	VMULSD X3, X0, X0
	VMOVSD X0, (DX)
	ADDQ   $8, DX
	DECQ   CX
	JNZ    sscalar

sdone:
	VZEROUPPER
	RET
