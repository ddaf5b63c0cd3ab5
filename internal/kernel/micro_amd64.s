// AVX-512 and AVX2 micro-kernels and CPU feature probes for the packed
// base case.
//
// Both kernels compute the same 4×8 register tile. The AVX-512 kernel
// maps one output row to one ZMM accumulator (eight float64 columns per
// register); the AVX2 kernel maps it to two YMM accumulators. Each k
// step loads the eight packed B columns once, broadcasts the four
// packed A row elements, and issues a separate multiply and add per
// accumulator — deliberately NOT VFMADD: the fused multiply-add rounds
// once where mul-then-add rounds twice, and the kernel's contract is
// bitwise equality with the scalar naive triple loop, which rounds
// twice. Per output element the adds form one serial ascending-k
// chain, so each element's rounding history is identical to the scalar
// kernel's.
//
// Register tile layout: acc is the row-major 4×8 tile, so row r starts
// at byte 64·r. One k step reads 32 bytes of packed A (four rows) and
// 64 bytes of packed B (eight columns).

#include "textflag.h"

// AVX512_STEP applies one k step: A at ao(SI), B at bo(DI). The four
// products land in Z5–Z8 before the adds, so the multiplies issue back
// to back and only the adds wait on the accumulator chains Z0–Z3.
#define AVX512_STEP(ao, bo) \
	VMOVUPD     bo(DI), Z4;         \
	VMULPD.BCST ao(SI), Z4, Z5;     \
	VMULPD.BCST ao+8(SI), Z4, Z6;   \
	VMULPD.BCST ao+16(SI), Z4, Z7;  \
	VMULPD.BCST ao+24(SI), Z4, Z8;  \
	VADDPD      Z5, Z0, Z0;         \
	VADDPD      Z6, Z1, Z1;         \
	VADDPD      Z7, Z2, Z2;         \
	VADDPD      Z8, Z3, Z3

// func microAVX512(ap, bp *float64, kc int, acc *[32]float64)
TEXT ·microAVX512(SB), NOSPLIT, $0-32
	MOVQ ap+0(FP), SI
	MOVQ bp+8(FP), DI
	MOVQ kc+16(FP), CX
	MOVQ acc+24(FP), DX

	VMOVUPD (DX), Z0      // acc row 0
	VMOVUPD 64(DX), Z1    // acc row 1
	VMOVUPD 128(DX), Z2   // acc row 2
	VMOVUPD 192(DX), Z3   // acc row 3

	MOVQ CX, BX
	ANDQ $1, BX           // BX = kc odd?
	SHRQ $1, CX           // CX = kc/2 (pairs)
	JZ   tail512

pair512:
	AVX512_STEP(0, 0)
	AVX512_STEP(32, 64)
	ADDQ $64, SI
	ADDQ $128, DI
	DECQ CX
	JNZ  pair512

tail512:
	TESTQ BX, BX
	JZ    done512
	AVX512_STEP(0, 0)

done512:
	VMOVUPD Z0, (DX)
	VMOVUPD Z1, 64(DX)
	VMOVUPD Z2, 128(DX)
	VMOVUPD Z3, 192(DX)
	VZEROUPPER
	RET

// AVX2_ROW multiplies the B row halves Y8/Y9 by the broadcast A element
// at a(SI) and adds the products to the row's accumulators lo/hi, with
// tmp and bc as scratch.
#define AVX2_ROW(a, bc, tmp, lo, hi) \
	VBROADCASTSD a(SI), bc;  \
	VMULPD       Y8, bc, tmp; \
	VMULPD       Y9, bc, bc;  \
	VADDPD       tmp, lo, lo; \
	VADDPD       bc, hi, hi

// AVX2_STEP applies one k step: A at ao(SI), B at bo(DI).
#define AVX2_STEP(ao, bo) \
	VMOVUPD bo(DI), Y8;                  \
	VMOVUPD bo+32(DI), Y9;               \
	AVX2_ROW(ao, Y10, Y14, Y0, Y1);      \
	AVX2_ROW(ao+8, Y11, Y15, Y2, Y3);    \
	AVX2_ROW(ao+16, Y12, Y14, Y4, Y5);   \
	AVX2_ROW(ao+24, Y13, Y15, Y6, Y7)

// func microAVX2(ap, bp *float64, kc int, acc *[32]float64)
TEXT ·microAVX2(SB), NOSPLIT, $0-32
	MOVQ ap+0(FP), SI
	MOVQ bp+8(FP), DI
	MOVQ kc+16(FP), CX
	MOVQ acc+24(FP), DX

	VMOVUPD (DX), Y0      // acc row 0, columns 0–3
	VMOVUPD 32(DX), Y1    // acc row 0, columns 4–7
	VMOVUPD 64(DX), Y2    // acc row 1
	VMOVUPD 96(DX), Y3
	VMOVUPD 128(DX), Y4   // acc row 2
	VMOVUPD 160(DX), Y5
	VMOVUPD 192(DX), Y6   // acc row 3
	VMOVUPD 224(DX), Y7

	MOVQ CX, BX
	ANDQ $1, BX           // BX = kc odd?
	SHRQ $1, CX           // CX = kc/2 (pairs)
	JZ   tail2

pair2:
	AVX2_STEP(0, 0)
	AVX2_STEP(32, 64)
	ADDQ $64, SI
	ADDQ $128, DI
	DECQ CX
	JNZ  pair2

tail2:
	TESTQ BX, BX
	JZ    done2
	AVX2_STEP(0, 0)

done2:
	VMOVUPD Y0, (DX)
	VMOVUPD Y1, 32(DX)
	VMOVUPD Y2, 64(DX)
	VMOVUPD Y3, 96(DX)
	VMOVUPD Y4, 128(DX)
	VMOVUPD Y5, 160(DX)
	VMOVUPD Y6, 192(DX)
	VMOVUPD Y7, 224(DX)
	VZEROUPPER
	RET

// func cpuid(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxIn+0(FP), AX
	MOVL ecxIn+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
