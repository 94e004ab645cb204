#include "textflag.h"

// func fpCallers(pcs []uintptr) int
//
// Fills pcs with the return addresses of the caller's frame-pointer
// chain and returns how many it wrote. The routine has no frame of its
// own ($0), so BP still holds the caller's frame pointer: 8(BP) is the
// return address into the caller's caller and 0(BP) the next frame
// pointer. The walk stops at a nil frame pointer (the bottom of the
// goroutine stack) or when pcs is full. No PC tables are consulted.
TEXT ·fpCallers(SB), NOSPLIT, $0-32
	MOVQ	pcs_base+0(FP), DI
	MOVQ	pcs_len+8(FP), CX
	MOVQ	BP, SI
	XORQ	AX, AX
loop:
	CMPQ	AX, CX
	JGE	done
	TESTQ	SI, SI
	JZ	done
	MOVQ	8(SI), DX
	MOVQ	DX, (DI)(AX*8)
	MOVQ	0(SI), SI
	INCQ	AX
	JMP	loop
done:
	MOVQ	AX, ret+24(FP)
	RET
