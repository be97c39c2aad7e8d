//go:build !race

#include "textflag.h"

// AVX2 elementwise kernels for the LSTM step (gates.go) and the bias
// broadcast (AddRowVector). Lanes are columns and nothing else: every lane
// runs its element's float32 chain of the Go loop, one VMULPS, VADDPS or
// VSUBPS per Go operation in the Go loop's order, never an FMA and never a
// sum across lanes. Each kernel covers the whole groups of eight columns of
// every row, walking rows in ascending order; the Go caller finishes the
// row's last cols%8 columns, so nothing here reads or writes past a row. See
// DESIGN.md §6.

DATA gatesOne<>+0(SB)/4, $0x3f800000
GLOBL gatesOne<>(SB), RODATA|NOPTR, $4

// NEXTROW moves ptr from the end of a row's whole groups (grp bytes past the
// row's start) to the start of the next row, stride bytes on.
#define NEXTROW(ptr, stride, grp) \
	MOVQ stride, AX; \
	SUBQ grp, AX; \
	ADDQ AX, ptr

// func addRowAVX2(m, vec *float32, rows, cols int)
//
// m[r*cols+j] += vec[j] for r < rows and j < cols&^7. Requires rows >= 1 and
// cols >= 8.
TEXT ·addRowAVX2(SB), NOSPLIT, $0-32
	MOVQ m+0(FP), DI
	MOVQ rows+16(FP), R8
	MOVQ cols+24(FP), R9
	SHLQ $2, R9
	MOVQ R9, R10
	ANDQ $-32, R10

addrow:
	MOVQ vec+8(FP), SI
	MOVQ R10, CX
addcol:
	VMOVUPS (DI), Y0
	VADDPS  (SI), Y0, Y0
	VMOVUPS Y0, (DI)
	ADDQ    $32, DI
	ADDQ    $32, SI
	SUBQ    $32, CX
	JNZ     addcol
	NEXTROW(DI, R9, R10)
	DECQ    R8
	JNZ     addrow
	VZEROUPPER
	RET

// Register roles in gatesAVX2 and gatesBackwardAVX2 (strides in bytes):
//   R8 rows left   R9 h·4, one gate block   R12 3·h·4   R10 bytes of a row's
//   whole groups of eight   R11 the previous cell state's row stride
//   SI the gate row at the current column: i at (SI), f at (SI)(R9*1),
//   g at (SI)(R9*2), o at (SI)(R12*1)   CX bytes left in the row
//   AX scratch   Y15 1.0 in every lane

// func gatesAVX2(out, gates, prev *float32, rows, hd, prevStride, op int)
//
// For r < rows and j < hd&^7, out[r*hd+j] =
//
//	op 0 (gatesCell):   float32(f·prev) + float32(i·g)
//	op 1 (gatesHidden): o·prev
//
// with i, f, g, o the row's gate blocks gates[r*4hd + {0,1,2,3}·hd + j] and
// prev = prev[r*prevStride+j]. Requires rows >= 1 and hd >= 8.
TEXT ·gatesAVX2(SB), NOSPLIT, $0-56
	MOVQ out+0(FP), DI
	MOVQ gates+8(FP), SI
	MOVQ prev+16(FP), DX
	MOVQ rows+24(FP), R8
	MOVQ hd+32(FP), R9
	SHLQ $2, R9
	LEAQ (R9)(R9*2), R12
	MOVQ R9, R10
	ANDQ $-32, R10
	MOVQ prevStride+40(FP), R11
	SHLQ $2, R11
	LEAQ (R12)(R9*1), BX // gate row stride
	CMPQ op+48(FP), $1
	JEQ  hidden

cellrow:
	MOVQ R10, CX
cellcol:
	VMOVUPS (SI)(R9*1), Y0
	VMULPS  (DX), Y0, Y0       // f·prev
	VMOVUPS (SI), Y1
	VMULPS  (SI)(R9*2), Y1, Y1 // i·g
	VADDPS  Y1, Y0, Y0
	VMOVUPS Y0, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DX
	ADDQ    $32, DI
	SUBQ    $32, CX
	JNZ     cellcol
	NEXTROW(SI, BX, R10)
	NEXTROW(DX, R11, R10)
	NEXTROW(DI, R9, R10)
	DECQ    R8
	JNZ     cellrow
	JMP     gatesdone

hidden:
	MOVQ R10, CX
hiddencol:
	VMOVUPS (SI)(R12*1), Y0
	VMULPS  (DX), Y0, Y0 // o·prev
	VMOVUPS Y0, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DX
	ADDQ    $32, DI
	SUBQ    $32, CX
	JNZ     hiddencol
	NEXTROW(SI, BX, R10)
	NEXTROW(DX, R11, R10)
	NEXTROW(DI, R9, R10)
	DECQ    R8
	JNZ     hidden

gatesdone:
	VZEROUPPER
	RET

// func gatesBackwardAVX2(dz, dc, bsum, gates, tanhC, prev, dh *float32, rows, hd, prevStride int)
//
// LSTMStepBackwardInto's loop body for r < rows and j < hd&^7: with i, f, g,
// o the row's activated gates, t = tanhC, p = prev (rows prevStride apart),
//
//	dcv = dc + (dh·o)·(1 − t·t)
//	dz  = (dcv·g)·(i·(1 − i)) | (dcv·p)·(f·(1 − f)) | (dcv·i)·(1 − g·g) | (dh·t)·(o·(1 − o))
//	dc  = dcv·f
//
// and each dz block added to the same block of bsum, rows in ascending order.
// Requires rows >= 1 and hd >= 8. Beside the roles above: DI the dz row,
// BX the bsum block (the same columns for every row), R13 the tanhC row,
// R14 the dh row, R15 the dc row, DX the prev row, all at the current column.
TEXT ·gatesBackwardAVX2(SB), NOSPLIT, $0-80
	MOVQ dz+0(FP), DI
	MOVQ dc+8(FP), R15
	MOVQ bsum+16(FP), BX
	MOVQ gates+24(FP), SI
	MOVQ tanhC+32(FP), R13
	MOVQ prev+40(FP), DX
	MOVQ dh+48(FP), R14
	MOVQ rows+56(FP), R8
	MOVQ hd+64(FP), R9
	SHLQ $2, R9
	LEAQ (R9)(R9*2), R12
	MOVQ R9, R10
	ANDQ $-32, R10
	MOVQ prevStride+72(FP), R11
	SHLQ $2, R11
	VBROADCASTSS gatesOne<>(SB), Y15

bwdrow:
	MOVQ R10, CX
bwdcol:
	// dcv = dc + (dh·o)·(1 − t·t) in Y3; Y0 o, Y1 t, Y2 dh.
	VMOVUPS (SI)(R12*1), Y0
	VMOVUPS (R13), Y1
	VMOVUPS (R14), Y2
	VMULPS  Y0, Y2, Y3
	VMULPS  Y1, Y1, Y4
	VSUBPS  Y4, Y15, Y4
	VMULPS  Y4, Y3, Y3
	VADDPS  (R15), Y3, Y3

	// do = (dh·t)·(o·(1 − o))
	VMULPS  Y1, Y2, Y4
	VSUBPS  Y0, Y15, Y5
	VMULPS  Y5, Y0, Y5
	VMULPS  Y5, Y4, Y4
	VMOVUPS Y4, (DI)(R12*1)
	VADDPS  (BX)(R12*1), Y4, Y4
	VMOVUPS Y4, (BX)(R12*1)

	// di = (dcv·g)·(i·(1 − i)); Y6 i, Y7 g.
	VMOVUPS (SI), Y6
	VMOVUPS (SI)(R9*2), Y7
	VMULPS  Y7, Y3, Y8
	VSUBPS  Y6, Y15, Y9
	VMULPS  Y9, Y6, Y9
	VMULPS  Y9, Y8, Y8
	VMOVUPS Y8, (DI)
	VADDPS  (BX), Y8, Y8
	VMOVUPS Y8, (BX)

	// dg = (dcv·i)·(1 − g·g)
	VMULPS  Y6, Y3, Y8
	VMULPS  Y7, Y7, Y9
	VSUBPS  Y9, Y15, Y9
	VMULPS  Y9, Y8, Y8
	VMOVUPS Y8, (DI)(R9*2)
	VADDPS  (BX)(R9*2), Y8, Y8
	VMOVUPS Y8, (BX)(R9*2)

	// df = (dcv·p)·(f·(1 − f)); Y10 f.
	VMOVUPS (SI)(R9*1), Y10
	VMULPS  (DX), Y3, Y11
	VSUBPS  Y10, Y15, Y12
	VMULPS  Y12, Y10, Y12
	VMULPS  Y12, Y11, Y11
	VMOVUPS Y11, (DI)(R9*1)
	VADDPS  (BX)(R9*1), Y11, Y11
	VMOVUPS Y11, (BX)(R9*1)

	// dc = dcv·f
	VMULPS  Y10, Y3, Y3
	VMOVUPS Y3, (R15)

	ADDQ $32, SI
	ADDQ $32, DI
	ADDQ $32, BX
	ADDQ $32, R13
	ADDQ $32, R14
	ADDQ $32, R15
	ADDQ $32, DX
	SUBQ $32, CX
	JNZ  bwdcol

	LEAQ (R12)(R9*1), AX // gate row stride − the groups
	SUBQ R10, AX
	ADDQ AX, SI
	ADDQ AX, DI
	SUBQ R10, BX
	NEXTROW(R13, R9, R10)
	NEXTROW(R14, R9, R10)
	NEXTROW(R15, R9, R10)
	NEXTROW(DX, R11, R10)
	DECQ R8
	JNZ  bwdrow
	VZEROUPPER
	RET
