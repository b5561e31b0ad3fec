#include "textflag.h"

// AVX2 tap kernels. Each keeps the canonical summation order of taps.go:
// one YMM register holds the four lane accumulators (term i in lane i mod 4),
// the lanes combine as (lane0 + lane2) + (lane1 + lane3), and the n mod 4
// tail terms are added one by one after that. Products and sums are rounded
// separately (VMULPD then VADDPD/VSUBPD, never an FMA), so the results are
// bit-identical to the Go implementations.

// func dotAVX2(a, b []float64) float64
TEXT ·dotAVX2(SB), NOSPLIT, $0-56
	MOVQ a_base+0(FP), SI
	MOVQ a_len+8(FP), CX
	MOVQ b_base+24(FP), DI
	VXORPD Y0, Y0, Y0
	MOVQ CX, DX
	SHRQ $2, DX
	JZ   dotreduce

dotloop:
	VMOVUPD (SI), Y1
	VMULPD  (DI), Y1, Y1
	VADDPD  Y1, Y0, Y0
	ADDQ    $32, SI
	ADDQ    $32, DI
	DECQ    DX
	JNZ     dotloop

dotreduce:
	// X0 = [lane0 lane1], X1 = [lane2 lane3].
	VEXTRACTF128 $1, Y0, X1
	VADDPD       X1, X0, X0
	VUNPCKHPD    X0, X0, X1
	VADDSD       X1, X0, X0
	ANDQ         $3, CX
	JZ           dotdone

dottail:
	VMOVSD (SI), X1
	VMULSD (DI), X1, X1
	VADDSD X1, X0, X0
	ADDQ   $8, SI
	ADDQ   $8, DI
	DECQ   CX
	JNZ    dottail

dotdone:
	VZEROUPPER
	MOVSD X0, ret+48(FP)
	RET

// func updateDotAVX2(w, fx, x []float64, leak, muE float64) float64
TEXT ·updateDotAVX2(SB), NOSPLIT, $0-96
	MOVQ         w_base+0(FP), SI
	MOVQ         w_len+8(FP), CX
	MOVQ         fx_base+24(FP), DI
	MOVQ         x_base+48(FP), R8
	VBROADCASTSD leak+72(FP), Y2
	VBROADCASTSD muE+80(FP), Y3
	VXORPD       Y0, Y0, Y0
	MOVQ         CX, DX
	SHRQ         $2, DX
	JZ           udreduce

udloop:
	VMOVUPD (SI), Y1
	VMULPD  Y2, Y1, Y1
	VMULPD  (DI), Y3, Y4
	VSUBPD  Y4, Y1, Y1
	VMOVUPD Y1, (SI)
	VMULPD  (R8), Y1, Y1
	VADDPD  Y1, Y0, Y0
	ADDQ    $32, SI
	ADDQ    $32, DI
	ADDQ    $32, R8
	DECQ    DX
	JNZ     udloop

udreduce:
	VEXTRACTF128 $1, Y0, X1
	VADDPD       X1, X0, X0
	VUNPCKHPD    X0, X0, X1
	VADDSD       X1, X0, X0
	ANDQ         $3, CX
	JZ           uddone

udtail:
	VMOVSD (SI), X1
	VMULSD X2, X1, X1
	VMULSD (DI), X3, X4
	VSUBSD X4, X1, X1
	VMOVSD X1, (SI)
	VMULSD (R8), X1, X1
	VADDSD X1, X0, X0
	ADDQ   $8, SI
	ADDQ   $8, DI
	ADDQ   $8, R8
	DECQ   CX
	JNZ    udtail

uddone:
	VZEROUPPER
	MOVSD X0, ret+88(FP)
	RET

// func updateAVX2(w, fx []float64, leak, muE float64)
TEXT ·updateAVX2(SB), NOSPLIT, $0-64
	MOVQ         w_base+0(FP), SI
	MOVQ         w_len+8(FP), CX
	MOVQ         fx_base+24(FP), DI
	VBROADCASTSD leak+48(FP), Y2
	VBROADCASTSD muE+56(FP), Y3
	MOVQ         CX, DX
	SHRQ         $3, DX
	JZ           up4

uploop:
	VMOVUPD (SI), Y1
	VMOVUPD 32(SI), Y5
	VMULPD  Y2, Y1, Y1
	VMULPD  Y2, Y5, Y5
	VMULPD  (DI), Y3, Y4
	VMULPD  32(DI), Y3, Y6
	VSUBPD  Y4, Y1, Y1
	VSUBPD  Y6, Y5, Y5
	VMOVUPD Y1, (SI)
	VMOVUPD Y5, 32(SI)
	ADDQ    $64, SI
	ADDQ    $64, DI
	DECQ    DX
	JNZ     uploop

up4:
	TESTQ $4, CX
	JZ    uptail0
	VMOVUPD (SI), Y1
	VMULPD  Y2, Y1, Y1
	VMULPD  (DI), Y3, Y4
	VSUBPD  Y4, Y1, Y1
	VMOVUPD Y1, (SI)
	ADDQ    $32, SI
	ADDQ    $32, DI

uptail0:
	ANDQ $3, CX
	JZ   updone

uptail:
	VMOVSD (SI), X1
	VMULSD X2, X1, X1
	VMULSD (DI), X3, X4
	VSUBSD X4, X1, X1
	VMOVSD X1, (SI)
	ADDQ   $8, SI
	ADDQ   $8, DI
	DECQ   CX
	JNZ    uptail

updone:
	VZEROUPPER
	RET

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
