//go:build !race

#include "textflag.h"

// AVX2 GEMM micro-kernels. Lanes are output columns and nothing else: one
// vector lane holds one output element for the whole reduction, products are
// VMULPS and sums VADDPS (never an FMA), so every element is the float32
// chain the Go kernels in tensor.go compute. See DESIGN.md §6.

// ·gemmMask + 32 - 4r is a mask selecting the low r lanes of eight (shared
// with rows_amd64.s).
DATA ·gemmMask+0(SB)/8, $0xffffffffffffffff
DATA ·gemmMask+8(SB)/8, $0xffffffffffffffff
DATA ·gemmMask+16(SB)/8, $0xffffffffffffffff
DATA ·gemmMask+24(SB)/8, $0xffffffffffffffff
DATA ·gemmMask+32(SB)/8, $0
DATA ·gemmMask+40(SB)/8, $0
DATA ·gemmMask+48(SB)/8, $0
DATA ·gemmMask+56(SB)/8, $0
GLOBL ·gemmMask(SB), RODATA|NOPTR, $64

// Register roles throughout gemmAVX2 (strides in bytes):
//   R8 ars   R9 aks   R10 ldb   R11 ldo   R12 3*ars
//   BX b at (k=0, first column of the block)   R13 out at (row 0, same column)
//   R14 columns left   R15 rows left in this column block
//   SI a at (first row of the group, k=0)      DI out at (same row, block column)
//   DX a cursor   AX b cursor (scratch outside the k loop)   CX k counter
//   Y0-Y7 accumulators   Y8,Y9 b row   Y10 broadcast a   Y11,Y12 products
//   Y15 column mask of the 8-wide blocks

#define ZERO8 \
	VXORPS Y0, Y0, Y0; VXORPS Y1, Y1, Y1; VXORPS Y2, Y2, Y2; VXORPS Y3, Y3, Y3; \
	VXORPS Y4, Y4, Y4; VXORPS Y5, Y5, Y5; VXORPS Y6, Y6, Y6; VXORPS Y7, Y7, Y7

// LD4x16 loads the 4-row, 16-column output tile at DI; clobbers AX.
#define LD4x16(r0, r1, r2, r3, r4, r5, r6, r7) \
	LEAQ (DI)(R11*2), AX; \
	VMOVUPS (DI), r0; VMOVUPS 32(DI), r1; \
	VMOVUPS (DI)(R11*1), r2; VMOVUPS 32(DI)(R11*1), r3; \
	VMOVUPS (AX), r4; VMOVUPS 32(AX), r5; \
	VMOVUPS (AX)(R11*1), r6; VMOVUPS 32(AX)(R11*1), r7

// LD4x8 loads the 4-row tile at DI under the column mask; clobbers AX.
#define LD4x8(r0, r1, r2, r3) \
	LEAQ (DI)(R11*2), AX; \
	VMASKMOVPS (DI), Y15, r0; VMASKMOVPS (DI)(R11*1), Y15, r1; \
	VMASKMOVPS (AX), Y15, r2; VMASKMOVPS (AX)(R11*1), Y15, r3

// STEP16 adds a[row][k]*b[k][0:16] to one row's two accumulators.
#define STEP16(aaddr, acc0, acc1) \
	VBROADCASTSS aaddr, Y10; \
	VMULPS Y8, Y10, Y11; VMULPS Y9, Y10, Y12; \
	VADDPS Y11, acc0, acc0; VADDPS Y12, acc1, acc1

// STEP8 is STEP16 for an 8-wide block.
#define STEP8(aaddr, acc) \
	VBROADCASTSS aaddr, Y10; \
	VMULPS Y8, Y10, Y11; \
	VADDPS Y11, acc, acc

// func gemmAVX2(out, a, b *float32, m, k, n, ldo, ars, aks, ldb, mode int)
//
// For i < m, j < n, with A(i,x) = a[i*ars + x*aks] and B(x,j) = b[x*ldb + j],
// writes out[i*ldo + j] as one left-to-right float32 chain over x = 0..k-1:
//   mode 0:  (((+0 + A(i,0)·B(0,j)) + A(i,1)·B(1,j)) + …)
//   mode 1:  (((out[i*ldo+j] + A(i,0)·B(0,j)) + A(i,1)·B(1,j)) + …)
//   mode 2:  out[i*ldo+j] + (the mode 0 chain)
// every product rounded to float32 before its add. Requires m, k, n > 0.
// Column blocks of 16, then 8 under a lane mask (so n%8 columns neither
// read nor write past a row); 4 output rows per pass, then single rows.
TEXT ·gemmAVX2(SB), NOSPLIT, $0-88
	MOVQ ars+56(FP), R8
	MOVQ aks+64(FP), R9
	MOVQ ldb+72(FP), R10
	MOVQ ldo+48(FP), R11
	SHLQ $2, R8
	SHLQ $2, R9
	SHLQ $2, R10
	SHLQ $2, R11
	LEAQ (R8)(R8*2), R12
	MOVQ out+0(FP), R13
	MOVQ b+16(FP), BX
	MOVQ n+40(FP), R14

cols16:
	CMPQ R14, $16
	JLT  cols8
	MOVQ R13, DI
	MOVQ a+8(FP), SI
	MOVQ m+24(FP), R15

rows4x16:
	CMPQ R15, $4
	JLT  rows1x16
	ZERO8
	CMPQ mode+80(FP), $1
	JNE  start4x16
	LD4x16(Y0, Y1, Y2, Y3, Y4, Y5, Y6, Y7)
start4x16:
	MOVQ SI, DX
	MOVQ BX, AX
	MOVQ k+32(FP), CX
loop4x16:
	VMOVUPS (AX), Y8
	VMOVUPS 32(AX), Y9
	STEP16((DX), Y0, Y1)
	STEP16((DX)(R8*1), Y2, Y3)
	STEP16((DX)(R8*2), Y4, Y5)
	STEP16((DX)(R12*1), Y6, Y7)
	ADDQ R9, DX
	ADDQ R10, AX
	DECQ CX
	JNZ  loop4x16
	CMPQ mode+80(FP), $2
	JNE  store4x16
	LD4x16(Y8, Y9, Y10, Y11, Y12, Y13, Y14, Y15)
	VADDPS Y0, Y8, Y0
	VADDPS Y1, Y9, Y1
	VADDPS Y2, Y10, Y2
	VADDPS Y3, Y11, Y3
	VADDPS Y4, Y12, Y4
	VADDPS Y5, Y13, Y5
	VADDPS Y6, Y14, Y6
	VADDPS Y7, Y15, Y7
store4x16:
	LEAQ (DI)(R11*2), AX
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, (DI)(R11*1)
	VMOVUPS Y3, 32(DI)(R11*1)
	VMOVUPS Y4, (AX)
	VMOVUPS Y5, 32(AX)
	VMOVUPS Y6, (AX)(R11*1)
	VMOVUPS Y7, 32(AX)(R11*1)
	LEAQ (SI)(R8*4), SI
	LEAQ (DI)(R11*4), DI
	SUBQ $4, R15
	JMP  rows4x16

rows1x16:
	TESTQ R15, R15
	JZ   next16
	ZERO8
	CMPQ mode+80(FP), $1
	JNE  start1x16
	VMOVUPS (DI), Y0
	VMOVUPS 32(DI), Y1
start1x16:
	MOVQ SI, DX
	MOVQ BX, AX
	MOVQ k+32(FP), CX
loop1x16:
	VMOVUPS (AX), Y8
	VMOVUPS 32(AX), Y9
	STEP16((DX), Y0, Y1)
	ADDQ R9, DX
	ADDQ R10, AX
	DECQ CX
	JNZ  loop1x16
	CMPQ mode+80(FP), $2
	JNE  store1x16
	VADDPS (DI), Y0, Y0
	VADDPS 32(DI), Y1, Y1
store1x16:
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	ADDQ R8, SI
	ADDQ R11, DI
	DECQ R15
	JMP  rows1x16

next16:
	ADDQ $64, BX
	ADDQ $64, R13
	SUBQ $16, R14
	JMP  cols16

cols8:
	TESTQ R14, R14
	JLE  done
	MOVQ $8, AX
	CMPQ R14, AX
	CMOVQLT R14, AX
	NEGQ AX
	LEAQ ·gemmMask(SB), CX
	VMOVDQU 32(CX)(AX*4), Y15
	MOVQ R13, DI
	MOVQ a+8(FP), SI
	MOVQ m+24(FP), R15

rows4x8:
	CMPQ R15, $4
	JLT  rows1x8
	ZERO8
	CMPQ mode+80(FP), $1
	JNE  start4x8
	LD4x8(Y0, Y1, Y2, Y3)
start4x8:
	MOVQ SI, DX
	MOVQ BX, AX
	MOVQ k+32(FP), CX
loop4x8:
	VMASKMOVPS (AX), Y15, Y8
	STEP8((DX), Y0)
	STEP8((DX)(R8*1), Y1)
	STEP8((DX)(R8*2), Y2)
	STEP8((DX)(R12*1), Y3)
	ADDQ R9, DX
	ADDQ R10, AX
	DECQ CX
	JNZ  loop4x8
	CMPQ mode+80(FP), $2
	JNE  store4x8
	LD4x8(Y4, Y5, Y6, Y7)
	VADDPS Y0, Y4, Y0
	VADDPS Y1, Y5, Y1
	VADDPS Y2, Y6, Y2
	VADDPS Y3, Y7, Y3
store4x8:
	LEAQ (DI)(R11*2), AX
	VMASKMOVPS Y0, Y15, (DI)
	VMASKMOVPS Y1, Y15, (DI)(R11*1)
	VMASKMOVPS Y2, Y15, (AX)
	VMASKMOVPS Y3, Y15, (AX)(R11*1)
	LEAQ (SI)(R8*4), SI
	LEAQ (DI)(R11*4), DI
	SUBQ $4, R15
	JMP  rows4x8

rows1x8:
	TESTQ R15, R15
	JZ   next8
	VXORPS Y0, Y0, Y0
	CMPQ mode+80(FP), $1
	JNE  start1x8
	VMASKMOVPS (DI), Y15, Y0
start1x8:
	MOVQ SI, DX
	MOVQ BX, AX
	MOVQ k+32(FP), CX
loop1x8:
	VMASKMOVPS (AX), Y15, Y8
	STEP8((DX), Y0)
	ADDQ R9, DX
	ADDQ R10, AX
	DECQ CX
	JNZ  loop1x8
	CMPQ mode+80(FP), $2
	JNE  store1x8
	VMASKMOVPS (DI), Y15, Y4
	VADDPS Y0, Y4, Y0
store1x8:
	VMASKMOVPS Y0, Y15, (DI)
	ADDQ R8, SI
	ADDQ R11, DI
	DECQ R15
	JMP  rows1x8

next8:
	ADDQ $32, BX
	ADDQ $32, R13
	SUBQ $8, R14
	JMP  cols8

done:
	VZEROUPPER
	RET

// func cpuHasAVX2() bool
//
// AVX2 is usable when CPUID.1:ECX has OSXSAVE (bit 27) and AVX (bit 28), XCR0
// says the OS saves XMM and YMM state (bits 1 and 2), and CPUID.7.0:EBX has
// AVX2 (bit 5).
TEXT ·cpuHasAVX2(SB), NOSPLIT, $0-1
	MOVB $0, ret+0(FP)
	XORL AX, AX
	CPUID
	CMPL AX, $7
	JLT  noavx2
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x18000000, CX
	CMPL CX, $0x18000000
	JNE  noavx2
	XORL CX, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  noavx2
	MOVL $7, AX
	XORL CX, CX
	CPUID
	BTL  $5, BX
	JCC  noavx2
	MOVB $1, ret+0(FP)
noavx2:
	RET
