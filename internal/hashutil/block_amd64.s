//go:build !purego

#include "textflag.h"

// func murmurAVX2(dst *uint32, src *uint64, n int, salt, mask uint32)
//
// Per iteration: two 32-byte loads take eight tuples; VSHUFPS $0x88 keeps
// the low dword (the key) of each, which leaves them in the order
// 0 1 4 5 | 2 3 6 7, and VPERMQ $0xD8 swaps the middle quadwords back to
// 0 … 7. Then the salt, fmix32 (three shift-xors, two multiplies), the mask,
// and one 32-byte store.
TEXT ·murmurAVX2(SB), NOSPLIT, $0-32
	MOVQ         dst+0(FP), DI
	MOVQ         src+8(FP), SI
	MOVQ         n+16(FP), CX
	MOVL         salt+24(FP), AX
	VMOVD        AX, X5
	VPBROADCASTD X5, Y5
	MOVL         mask+28(FP), AX
	VMOVD        AX, X6
	VPBROADCASTD X6, Y6
	MOVL         $0x85ebca6b, AX
	VMOVD        AX, X7
	VPBROADCASTD X7, Y7
	MOVL         $0xc2b2ae35, AX
	VMOVD        AX, X8
	VPBROADCASTD X8, Y8

loop:
	VMOVDQU 0(SI), Y0
	VMOVDQU 32(SI), Y1
	VSHUFPS $0x88, Y1, Y0, Y0
	VPERMQ  $0xD8, Y0, Y0
	VPXOR   Y5, Y0, Y0
	VPSRLD  $16, Y0, Y1
	VPXOR   Y1, Y0, Y0
	VPMULLD Y7, Y0, Y0
	VPSRLD  $13, Y0, Y1
	VPXOR   Y1, Y0, Y0
	VPMULLD Y8, Y0, Y0
	VPSRLD  $16, Y0, Y1
	VPXOR   Y1, Y0, Y0
	VPAND   Y6, Y0, Y0
	VMOVDQU Y0, 0(DI)
	ADDQ    $64, SI
	ADDQ    $32, DI
	SUBQ    $8, CX
	JNZ     loop
	VZEROUPPER
	RET

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
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
