//go:build !race

#include "textflag.h"

// AVX2+FMA transcendental kernel: exp, the logistic sigmoid and tanh of four
// float32 elements at a time, each lane bit-equal to the scalar functions of
// trans.go — float32(math.Exp(float64(x))),
// float32(1/(1+math.Exp(-float64(x)))) and float32(math.Tanh(float64(x))).
// Nothing here is a "float32 exp": a lane widens to float64 and runs the
// toolchain's own float64 code on it.
//
// exp is math.archExp (GOROOT/src/math/exp_amd64.s) at four lanes: the same
// constants and, on its FMA branch (the one math takes when the CPU has AVX
// and FMA, which is when this kernel is dispatched), the same VFNMADD231 /
// VFMADD213 / VMULPD / VADDPD sequence in the same order, so the same
// roundings. archExp leaves that straight path for a non-finite argument, an
// overflow, or a result whose biased exponent n+1023 falls outside (0, 0x7FF)
// (denormal, zero or +Inf); every one of those shows here as n+1023 outside
// that range (VCVTPD2DQ turns NaN, ±Inf and anything past int32 into
// 0x80000000, and x > 709.78… rounds to n >= 1024), and the kernel returns at
// that group of four so that its caller runs the scalar function on it.
//
// tanh is math.tanh (GOROOT/src/math/tanh.go), whose branches are computed
// for every lane and blended: 1 − 2/(exp(2|x|)+1) with x's sign from |x| >=
// 0.625, and x + x·s·P(s)/Q(s), s = x², below — the compiler emits that
// rational as plain MULSD/ADDSD/DIVSD in this order (no fusion: go tool
// objdump -s '^math.tanh$'), so it is VMULPD/VADDPD/VDIVPD here. One VDIVPD
// serves both branches, each lane dividing its own branch's operands. Two of
// math's cases need no lane of their own: past |x| = 19.1, 2/(exp(2|x|)+1) is
// below 2^-54 and 1 − it rounds to exactly 1, so the exp branch already
// gives math's ±1 for |x| > 0.5·MAXLOG (the exp argument is clamped to 700,
// so ±Inf and other large lanes stay on the straight path); and OR-ing in x's
// sign, which both branches' results carry anyway (|x·s·P/Q| < |x|/7 below
// 0.625), turns the rational's +0 for x = −0 into math's x == 0 → x. NaN
// survives the clamp and sends its group to the scalar path.

// Constants, each broadcast to four float64 (or, the last three, four int32)
// lanes. The exp ones are exp_amd64.s's, the P/Q ones tanh.go's.
#define BCAST(off, v) \
	DATA transdata<>+(off)(SB)/8, v; \
	DATA transdata<>+(off+8)(SB)/8, v; \
	DATA transdata<>+(off+16)(SB)/8, v; \
	DATA transdata<>+(off+24)(SB)/8, v

#define LOG2E 0
#define LN2U 32
#define LN2L 64
#define SIXTEENTH 96
#define C8 128
#define C7 160
#define C6 192
#define C5 224
#define C4 256
#define C3 288
#define HALF 320
#define ONE 352
#define TWO 384
#define SIGN 416
#define ABS 448
#define CLAMP 480
#define TANHLO 512
#define P0 544
#define P1 576
#define P2 608
#define Q0 640
#define Q1 672
#define Q2 704
#define BIAS 736
#define BIASFLIP 752
#define EXPMAXFLIP 768

BCAST(LOG2E, $1.4426950408889634073599246810018920)
BCAST(LN2U, $0.69314718055966295651160180568695068359375)
BCAST(LN2L, $0.28235290563031577122588448175013436025525412068e-12)
BCAST(SIXTEENTH, $0.0625)
BCAST(C8, $2.4801587301587301587e-5)
BCAST(C7, $1.9841269841269841270e-4)
BCAST(C6, $1.3888888888888888889e-3)
BCAST(C5, $8.3333333333333333333e-3)
BCAST(C4, $4.1666666666666666667e-2)
BCAST(C3, $1.6666666666666666667e-1)
BCAST(HALF, $0.5)
BCAST(ONE, $1.0)
BCAST(TWO, $2.0)
BCAST(SIGN, $0x8000000000000000)
BCAST(ABS, $0x7fffffffffffffff)
BCAST(CLAMP, $700.0)
BCAST(TANHLO, $0.625)
BCAST(P0, $-9.64399179425052238628e-1)
BCAST(P1, $-9.92877231001918586564e1)
BCAST(P2, $-1.61468768441708447952e3)
BCAST(Q0, $1.12811678491632931402e2)
BCAST(Q1, $2.23548839060100448583e3)
BCAST(Q2, $4.84406305325125486048e3)
DATA transdata<>+(BIAS)(SB)/8, $0x000003ff000003ff
DATA transdata<>+(BIAS+8)(SB)/8, $0x000003ff000003ff
DATA transdata<>+(BIASFLIP)(SB)/8, $0x800003fe800003fe
DATA transdata<>+(BIASFLIP+8)(SB)/8, $0x800003fe800003fe
DATA transdata<>+(EXPMAXFLIP)(SB)/8, $0x800007fd800007fd
DATA transdata<>+(EXPMAXFLIP+8)(SB)/8, $0x800007fd800007fd
GLOBL transdata<>(SB), RODATA|NOPTR, $784

#define K(off) transdata<>+(off)(SB)

// EXP replaces the four float64 lanes of x with math.archExp of each, or
// jumps to bail, having written nothing, if a lane's result is off archExp's
// straight path: n+1023 outside (0, 0x7FF), that is n+1022 >= 0x7FE unsigned,
// tested as a signed compare of both sides with the sign bit flipped.
// Clobbers Y10-Y13.
#define EXP(x, bail) \
	VMULPD K(LOG2E), x, Y10; \
	VCVTPD2DQY Y10, X11; \
	VPADDD K(BIASFLIP), X11, X13; \
	VPCMPGTD K(EXPMAXFLIP), X13, X13; \
	VMOVMSKPS X13, AX; \
	TESTL AX, AX; \
	JNZ bail; \
	VPADDD K(BIAS), X11, X12; \
	VCVTDQ2PD X11, Y11; \
	VFNMADD231PD K(LN2U), Y11, x; \
	VFNMADD231PD K(LN2L), Y11, x; \
	VMULPD K(SIXTEENTH), x, x; \
	VMOVUPD K(C8), Y10; \
	VFMADD213PD K(C7), x, Y10; \
	VFMADD213PD K(C6), x, Y10; \
	VFMADD213PD K(C5), x, Y10; \
	VFMADD213PD K(C4), x, Y10; \
	VFMADD213PD K(C3), x, Y10; \
	VFMADD213PD K(HALF), x, Y10; \
	VFMADD213PD K(ONE), x, Y10; \
	VMULPD Y10, x, x; \
	VADDPD K(TWO), x, Y10; \
	VMULPD Y10, x, x; \
	VADDPD K(TWO), x, Y10; \
	VMULPD Y10, x, x; \
	VADDPD K(TWO), x, Y10; \
	VMULPD Y10, x, x; \
	VADDPD K(TWO), x, Y10; \
	VFMADD213PD K(ONE), Y10, x; \
	VPMOVZXDQ X12, Y12; \
	VPSLLQ $52, Y12, Y12; \
	VMULPD Y12, x, x

// func transAVX2(dst, src *float32, n, f int) int
//
// Maps src[0:n] into dst[0:n] four elements at a time with the function f
// (transExp, transSigmoid, transTanh) and returns how many elements it wrote:
// n rounded down to a multiple of four, or the start of the first group of
// four it cannot reproduce bit for bit (see above), which it leaves unwritten.
// Each group is read whole before it is written, so dst may be src. f ==
// transExp64 is exp with float64 elements in and out, for the tests: the
// float32 rounding every map ends in hides 29 of exp's bits.
TEXT ·transAVX2(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	MOVQ f+24(FP), DX
	XORQ BX, BX
	CMPQ DX, $1
	JEQ  sigmoid
	CMPQ DX, $2
	JEQ  tanh
	CMPQ DX, $3
	JEQ  exp64

exp:
	LEAQ 4(BX), R8
	CMPQ R8, CX
	JGT  done
	VCVTPS2PD (SI)(BX*4), Y0
	EXP(Y0, done)
	VCVTPD2PSY Y0, X0
	VMOVUPS X0, (DI)(BX*4)
	MOVQ R8, BX
	JMP  exp

exp64:
	LEAQ 4(BX), R8
	CMPQ R8, CX
	JGT  done
	VMOVUPD (SI)(BX*8), Y0
	EXP(Y0, done)
	VMOVUPD Y0, (DI)(BX*8)
	MOVQ R8, BX
	JMP  exp64

sigmoid:
	LEAQ 4(BX), R8
	CMPQ R8, CX
	JGT  done
	VCVTPS2PD (SI)(BX*4), Y0
	VXORPD K(SIGN), Y0, Y0
	EXP(Y0, done)
	VADDPD K(ONE), Y0, Y0
	VMOVUPD K(ONE), Y1
	VDIVPD Y0, Y1, Y0
	VCVTPD2PSY Y0, X0
	VMOVUPS X0, (DI)(BX*4)
	MOVQ R8, BX
	JMP  sigmoid

// Register roles in the tanh loop: Y0 x, Y1 |x|, Y2 exp(2|x|)+1 then the
// result, Y3 s, Y4 x·s, Y5 dividend then quotient, Y6 divisor, Y7 scratch,
// Y8 the exp branch's lanes.
tanh:
	LEAQ 4(BX), R8
	CMPQ R8, CX
	JGT  done
	VCVTPS2PD (SI)(BX*4), Y0
	VANDPD K(ABS), Y0, Y1
	VCMPPD $0x1d, K(TANHLO), Y1, Y8
	// exp(2|x|) + 1. VMINPD returns its first operand when either is NaN, so
	// a NaN lane reaches EXP and bails.
	VADDPD Y1, Y1, Y2
	VMOVUPD K(CLAMP), Y7
	VMINPD Y2, Y7, Y2
	EXP(Y2, done)
	VADDPD K(ONE), Y2, Y2
	// x·s·((P0·s + P1)·s + P2) and ((s + Q0)·s + Q1)·s + Q2, s = x·x.
	VMULPD Y0, Y0, Y3
	VMULPD Y3, Y0, Y4
	VMULPD K(P0), Y3, Y5
	VADDPD K(P1), Y5, Y5
	VMULPD Y3, Y5, Y5
	VADDPD K(P2), Y5, Y5
	VMULPD Y4, Y5, Y5
	VADDPD K(Q0), Y3, Y6
	VMULPD Y3, Y6, Y6
	VADDPD K(Q1), Y6, Y6
	VMULPD Y3, Y6, Y6
	VADDPD K(Q2), Y6, Y6
	// One division serves both branches, lane by lane: 2/(exp(2|x|)+1) from
	// 0.625, the rational's quotient below.
	VBLENDVPD Y8, K(TWO), Y5, Y5
	VBLENDVPD Y8, Y2, Y6, Y6
	VDIVPD Y6, Y5, Y5
	// 1 - quotient from 0.625, x + quotient below, then x's sign.
	VADDPD Y5, Y0, Y2
	VMOVUPD K(ONE), Y6
	VSUBPD Y5, Y6, Y5
	VBLENDVPD Y8, Y5, Y2, Y2
	VANDPD K(SIGN), Y0, Y7
	VORPD Y7, Y2, Y2
	VCVTPD2PSY Y2, X2
	VMOVUPS X2, (DI)(BX*4)
	MOVQ R8, BX
	JMP  tanh

done:
	MOVQ BX, ret+32(FP)
	VZEROUPPER
	RET

// func cpuHasFMA() bool
//
// CPUID.1:ECX bit 12. Only read together with cpuHasAVX2's answer, which
// covers the OS's YMM state.
TEXT ·cpuHasFMA(SB), NOSPLIT, $0-1
	MOVL $1, AX
	XORL CX, CX
	CPUID
	SHRL $12, CX
	ANDL $1, CX
	MOVB CX, ret+0(FP)
	RET
