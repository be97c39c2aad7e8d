//go:build !race

#include "textflag.h"

// AVX2 row kernel: one output row = the mean of the src rows an index list
// names. Lanes are output columns and nothing else, and a column's accumulator
// stays in its register across the whole list, so per element the float32
// chain is
//
//	((((+0 + x0) + x1) + …) × scale), then +0 + that
//
// over the list in ascending position — VADDPS, one VMULPS, one VADDPS, never
// an FMA and never a cross-lane sum: the chain of MeanRowsInto's Go loop in
// tensor.go (the closing +0 + · turns an underflowed -0 into +0). See
// DESIGN.md §6.

// Register roles (strides in bytes):
//   DI out at the block's first column   SI src row 0 at the same column
//   R8 idx   R9 n   R10 columns left   R11 row stride
//   DX idx cursor   CX indices left   AX byte offset of the current row
//   Y0-Y7 accumulators   Y13 tail lane mask   Y14 +0   Y15 scale

// ROWOFF loads the next index and leaves its row's byte offset in AX.
#define ROWOFF \
	MOVLQSX (DX), AX; \
	ADDQ $4, DX; \
	IMULQ R11, AX

// FINISH scales an accumulator, adds it to +0 and stores it at off(DI).
#define FINISH(acc, off) \
	VMULPS Y15, acc, acc; \
	VADDPS acc, Y14, acc; \
	VMOVUPS acc, off(DI)

// func meanRowsAVX2(out, src *float32, idx *int32, n, cols int, scale float32)
//
// out[j] = +0 + (+0 + src[idx[0]*cols+j] + … + src[idx[n-1]*cols+j])·scale for
// j < cols. Requires n, cols > 0 and every idx[i] a row of src (no bounds
// check here: MeanRowsInto makes both). Column blocks of 64, then 8, then a
// masked tail, so cols%8 columns neither read nor write past a row; each
// block walks the index list once.
TEXT ·meanRowsAVX2(SB), NOSPLIT, $0-44
	MOVQ out+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ idx+16(FP), R8
	MOVQ n+24(FP), R9
	MOVQ cols+32(FP), R10
	MOVQ R10, R11
	SHLQ $2, R11
	VBROADCASTSS scale+40(FP), Y15
	VXORPS Y14, Y14, Y14

cols64:
	CMPQ R10, $64
	JLT  cols8
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	MOVQ R8, DX
	MOVQ R9, CX
loop64:
	ROWOFF
	VADDPS (SI)(AX*1), Y0, Y0
	VADDPS 32(SI)(AX*1), Y1, Y1
	VADDPS 64(SI)(AX*1), Y2, Y2
	VADDPS 96(SI)(AX*1), Y3, Y3
	VADDPS 128(SI)(AX*1), Y4, Y4
	VADDPS 160(SI)(AX*1), Y5, Y5
	VADDPS 192(SI)(AX*1), Y6, Y6
	VADDPS 224(SI)(AX*1), Y7, Y7
	DECQ CX
	JNZ  loop64
	FINISH(Y0, 0)
	FINISH(Y1, 32)
	FINISH(Y2, 64)
	FINISH(Y3, 96)
	FINISH(Y4, 128)
	FINISH(Y5, 160)
	FINISH(Y6, 192)
	FINISH(Y7, 224)
	ADDQ $256, SI
	ADDQ $256, DI
	SUBQ $64, R10
	JMP  cols64

cols8:
	CMPQ R10, $8
	JLT  tail
	VXORPS Y0, Y0, Y0
	MOVQ R8, DX
	MOVQ R9, CX
loop8:
	ROWOFF
	VADDPS (SI)(AX*1), Y0, Y0
	DECQ CX
	JNZ  loop8
	FINISH(Y0, 0)
	ADDQ $32, SI
	ADDQ $32, DI
	SUBQ $8, R10
	JMP  cols8

tail:
	TESTQ R10, R10
	JZ   done
	NEGQ R10
	LEAQ ·gemmMask(SB), CX
	VMOVDQU 32(CX)(R10*4), Y13
	VXORPS Y0, Y0, Y0
	MOVQ R8, DX
	MOVQ R9, CX
looptail:
	ROWOFF
	VMASKMOVPS (SI)(AX*1), Y13, Y1
	VADDPS Y1, Y0, Y0
	DECQ CX
	JNZ  looptail
	VMULPS Y15, Y0, Y0
	VADDPS Y0, Y14, Y0
	VMASKMOVPS Y0, Y13, (DI)

done:
	VZEROUPPER
	RET
