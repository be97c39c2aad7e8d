//go:build !race

#include "textflag.h"

// AVX2 Adam step (adam.go's AdamInto): lanes are elements, each running the
// Go loop's float32 chain with one VMULPS, VADDPS, VSUBPS, VDIVPS or VSQRTPS
// per Go operation, in the Go loop's order and never fused. See DESIGN.md §6.

// func adamAVX2(values, grads, m, v *float32, n int, beta1, oneMinusBeta1, beta2, oneMinusBeta2, c1, c2, lr, eps float32)
//
// Updates elements [0, n) of the four arrays; n is a positive multiple of 8.
// Register roles: DI values, SI grads, DX m, BX v, CX elements left;
// Y8 β₁, Y9 1−β₁, Y10 β₂, Y11 1−β₂, Y12 c1, Y13 c2, Y14 lr, Y15 ε.
TEXT ·adamAVX2(SB), NOSPLIT, $0-72
	MOVQ values+0(FP), DI
	MOVQ grads+8(FP), SI
	MOVQ m+16(FP), DX
	MOVQ v+24(FP), BX
	MOVQ n+32(FP), CX
	VBROADCASTSS beta1+40(FP), Y8
	VBROADCASTSS oneMinusBeta1+44(FP), Y9
	VBROADCASTSS beta2+48(FP), Y10
	VBROADCASTSS oneMinusBeta2+52(FP), Y11
	VBROADCASTSS c1+56(FP), Y12
	VBROADCASTSS c2+60(FP), Y13
	VBROADCASTSS lr+64(FP), Y14
	VBROADCASTSS eps+68(FP), Y15

loop:
	VMOVUPS (SI), Y0
	// m = β₁·m + (1−β₁)·g
	VMULPS  (DX), Y8, Y1
	VMULPS  Y0, Y9, Y2
	VADDPS  Y2, Y1, Y1
	VMOVUPS Y1, (DX)
	// v = β₂·v + ((1−β₂)·g)·g
	VMULPS  (BX), Y10, Y3
	VMULPS  Y0, Y11, Y4
	VMULPS  Y0, Y4, Y4
	VADDPS  Y4, Y3, Y3
	VMOVUPS Y3, (BX)
	// values −= (lr·(m/c1)) / (√(v/c2) + ε)
	VDIVPS  Y12, Y1, Y1
	VDIVPS  Y13, Y3, Y3
	VSQRTPS Y3, Y3
	VADDPS  Y15, Y3, Y3
	VMULPS  Y14, Y1, Y1
	VDIVPS  Y3, Y1, Y1
	VMOVUPS (DI), Y2
	VSUBPS  Y1, Y2, Y2
	VMOVUPS Y2, (DI)
	ADDQ    $32, DI
	ADDQ    $32, SI
	ADDQ    $32, DX
	ADDQ    $32, BX
	SUBQ    $8, CX
	JNZ     loop
	VZEROUPPER
	RET
