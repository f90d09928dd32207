//go:build amd64 && gc && !purego

#include "textflag.h"

// The training kernels on AVX. Every one keeps the pure-Go reference's
// arithmetic exactly (see the package comment): a dot product adds each
// 4-lane partial product in ascending element order into one accumulator
// and reduces it as ((s0+s1)+s2)+s3 before the sequential tail; an axpy is
// a multiply then an add per element. There is no FMA anywhere.

// func dotsAVX(dst, v []float32, rows [][]float32)
//
// For each row k: X0 holds the lanes s0..s3. An 8-wide step multiplies
// v[i:i+8] by row[i:i+8] in Y1, then adds the low half (elements i..i+3)
// and the high half (i+4..i+7) into X0 in that order, exactly as two
// 4-wide steps of the reference would. One 4-wide step follows if at least
// four elements remain, then the reduction and the scalar tail. The row
// headers are read 24 bytes apart; only their base pointers are used.
TEXT ·dotsAVX(SB), NOSPLIT, $0-72
	MOVQ dst_base+0(FP), R8
	MOVQ dst_len+8(FP), R9
	MOVQ v_base+24(FP), SI
	MOVQ v_len+32(FP), CX
	MOVQ rows_base+48(FP), R10

	MOVQ CX, R12
	ANDQ $~7, R12         // end of the 8-wide body
	MOVQ CX, R13
	ANDQ $~3, R13         // end of the 4-lane part

	XORQ R11, R11         // row index

rowloop:
	CMPQ R11, R9
	JGE  done
	MOVQ (R10), DI        // rows[k] base
	VXORPS X0, X0, X0
	XORQ AX, AX

loop8:
	CMPQ AX, R12
	JGE  step4
	VMOVUPS      (DI)(AX*4), Y1
	VMULPS       (SI)(AX*4), Y1, Y1
	VADDPS       X1, X0, X0
	VEXTRACTF128 $1, Y1, X2
	VADDPS       X2, X0, X0
	ADDQ         $8, AX
	JMP          loop8

step4:
	CMPQ AX, R13
	JGE  reduce
	VMOVUPS (DI)(AX*4), X1
	VMULPS  (SI)(AX*4), X1, X1
	VADDPS  X1, X0, X0
	ADDQ    $4, AX

reduce:
	// ((s0 + s1) + s2) + s3 in the low lane of X7.
	VMOVSHDUP X0, X1          // X1[0] = s1
	VADDSS    X1, X0, X7
	VMOVHLPS  X0, X0, X1      // X1[0] = s2, X1[1] = s3
	VADDSS    X1, X7, X7
	VMOVSHDUP X1, X1          // X1[0] = s3
	VADDSS    X1, X7, X7

tail:
	CMPQ AX, CX
	JGE  rowdone
	VMOVSS (DI)(AX*4), X1
	VMULSS (SI)(AX*4), X1, X1
	VADDSS X1, X7, X7
	INCQ   AX
	JMP    tail

rowdone:
	VMOVSS X7, (R8)(R11*4)
	ADDQ   $24, R10
	INCQ   R11
	JMP    rowloop

done:
	VZEROUPPER
	RET

// func axpyAVX(alpha float32, x, y []float32)
//
// y[i] += alpha * x[i].
TEXT ·axpyAVX(SB), NOSPLIT, $0-56
	VBROADCASTSS alpha+0(FP), Y0
	MOVQ x_base+8(FP), SI
	MOVQ y_base+32(FP), DI
	MOVQ y_len+40(FP), CX
	MOVQ CX, R12
	ANDQ $~7, R12
	XORQ AX, AX

axloop8:
	CMPQ AX, R12
	JGE  axtail
	VMULPS  (SI)(AX*4), Y0, Y1
	VADDPS  (DI)(AX*4), Y1, Y1
	VMOVUPS Y1, (DI)(AX*4)
	ADDQ    $8, AX
	JMP     axloop8

axtail:
	CMPQ AX, CX
	JGE  axdone
	VMULSS (SI)(AX*4), X0, X1
	VADDSS (DI)(AX*4), X1, X1
	VMOVSS X1, (DI)(AX*4)
	INCQ   AX
	JMP    axtail

axdone:
	VZEROUPPER
	RET

// func axpyPairAVX(alpha float32, v, c, grad []float32)
//
// grad[i] += alpha * c[i], then c[i] += alpha * v[i], per element: c[i]
// is loaded once, used for grad, then updated.
TEXT ·axpyPairAVX(SB), NOSPLIT, $0-80
	VBROADCASTSS alpha+0(FP), Y0
	MOVQ v_base+8(FP), SI
	MOVQ c_base+32(FP), DI
	MOVQ c_len+40(FP), CX
	MOVQ grad_base+56(FP), DX
	MOVQ CX, R12
	ANDQ $~7, R12
	XORQ AX, AX

aploop8:
	CMPQ AX, R12
	JGE  aptail
	VMOVUPS (DI)(AX*4), Y1     // c
	VMULPS  Y1, Y0, Y2         // alpha*c
	VADDPS  (DX)(AX*4), Y2, Y2 // grad + alpha*c
	VMOVUPS Y2, (DX)(AX*4)
	VMULPS  (SI)(AX*4), Y0, Y3 // alpha*v
	VADDPS  Y3, Y1, Y1         // c + alpha*v
	VMOVUPS Y1, (DI)(AX*4)
	ADDQ    $8, AX
	JMP     aploop8

aptail:
	CMPQ AX, CX
	JGE  apdone
	VMOVSS (DI)(AX*4), X1
	VMULSS X1, X0, X2
	VADDSS (DX)(AX*4), X2, X2
	VMOVSS X2, (DX)(AX*4)
	VMULSS (SI)(AX*4), X0, X3
	VADDSS X3, X1, X1
	VMOVSS X1, (DI)(AX*4)
	INCQ   AX
	JMP    aptail

apdone:
	VZEROUPPER
	RET
