//go:build !purego

#include "textflag.h"

// func storeLine(dst, src *[8]uint64)
TEXT ·storeLine(SB), NOSPLIT, $0-16
	MOVQ   dst+0(FP), DI
	MOVQ   src+8(FP), SI
	MOVOU  0(SI), X0
	MOVOU  16(SI), X1
	MOVOU  32(SI), X2
	MOVOU  48(SI), X3
	MOVNTO X0, 0(DI)
	MOVNTO X1, 16(DI)
	MOVNTO X2, 32(DI)
	MOVNTO X3, 48(DI)
	RET

// func storeFence()
TEXT ·storeFence(SB), NOSPLIT, $0-0
	SFENCE
	RET
