//go:build amd64

#include "textflag.h"

// SHA-1 block function on the x86 SHA extensions, after Intel's reference
// schedule ("Intel SHA Extensions", 2013). X0 holds ABCD with A in the top
// lane, X1/X2 alternate as E (top lane), X3-X6 are the rolling message
// schedule W[0..15], X7 the byte-flip mask, X8/X9 the state at block start.

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

// func blockSHANI(h *[5]uint32, p []byte)
TEXT ·blockSHANI(SB), NOSPLIT, $0-32
	MOVQ h+0(FP), DI
	MOVQ p_base+8(FP), SI
	MOVQ p_len+16(FP), DX
	ANDQ $~63, DX
	CMPQ DX, $0
	JEQ  done
	ADDQ SI, DX

	MOVOU  (DI), X0
	PXOR   X1, X1
	PINSRD $3, 16(DI), X1
	PSHUFD $0x1b, X0, X0
	MOVOU  flipmask<>(SB), X7

loop:
	MOVO X0, X8
	MOVO X1, X9

	// rounds 0-3
	MOVOU      0(SI), X3
	PSHUFB     X7, X3
	PADDD      X3, X1
	MOVO       X0, X2
	SHA1RNDS4  $0, X1, X0
	// rounds 4-7
	MOVOU      16(SI), X4
	PSHUFB     X7, X4
	SHA1NEXTE  X4, X2
	MOVO       X0, X1
	SHA1RNDS4  $0, X2, X0
	SHA1MSG1   X4, X3
	// rounds 8-11
	MOVOU      32(SI), X5
	PSHUFB     X7, X5
	SHA1NEXTE  X5, X1
	MOVO       X0, X2
	SHA1RNDS4  $0, X1, X0
	SHA1MSG1   X5, X4
	PXOR       X5, X3
	// rounds 12-15
	MOVOU      48(SI), X6
	PSHUFB     X7, X6
	SHA1NEXTE  X6, X2
	MOVO       X0, X1
	SHA1MSG2   X6, X3
	SHA1RNDS4  $0, X2, X0
	SHA1MSG1   X6, X5
	PXOR       X6, X4
	// rounds 16-19
	SHA1NEXTE  X3, X1
	MOVO       X0, X2
	SHA1MSG2   X3, X4
	SHA1RNDS4  $0, X1, X0
	SHA1MSG1   X3, X6
	PXOR       X3, X5
	// rounds 20-23
	SHA1NEXTE  X4, X2
	MOVO       X0, X1
	SHA1MSG2   X4, X5
	SHA1RNDS4  $1, X2, X0
	SHA1MSG1   X4, X3
	PXOR       X4, X6
	// rounds 24-27
	SHA1NEXTE  X5, X1
	MOVO       X0, X2
	SHA1MSG2   X5, X6
	SHA1RNDS4  $1, X1, X0
	SHA1MSG1   X5, X4
	PXOR       X5, X3
	// rounds 28-31
	SHA1NEXTE  X6, X2
	MOVO       X0, X1
	SHA1MSG2   X6, X3
	SHA1RNDS4  $1, X2, X0
	SHA1MSG1   X6, X5
	PXOR       X6, X4
	// rounds 32-35
	SHA1NEXTE  X3, X1
	MOVO       X0, X2
	SHA1MSG2   X3, X4
	SHA1RNDS4  $1, X1, X0
	SHA1MSG1   X3, X6
	PXOR       X3, X5
	// rounds 36-39
	SHA1NEXTE  X4, X2
	MOVO       X0, X1
	SHA1MSG2   X4, X5
	SHA1RNDS4  $1, X2, X0
	SHA1MSG1   X4, X3
	PXOR       X4, X6
	// rounds 40-43
	SHA1NEXTE  X5, X1
	MOVO       X0, X2
	SHA1MSG2   X5, X6
	SHA1RNDS4  $2, X1, X0
	SHA1MSG1   X5, X4
	PXOR       X5, X3
	// rounds 44-47
	SHA1NEXTE  X6, X2
	MOVO       X0, X1
	SHA1MSG2   X6, X3
	SHA1RNDS4  $2, X2, X0
	SHA1MSG1   X6, X5
	PXOR       X6, X4
	// rounds 48-51
	SHA1NEXTE  X3, X1
	MOVO       X0, X2
	SHA1MSG2   X3, X4
	SHA1RNDS4  $2, X1, X0
	SHA1MSG1   X3, X6
	PXOR       X3, X5
	// rounds 52-55
	SHA1NEXTE  X4, X2
	MOVO       X0, X1
	SHA1MSG2   X4, X5
	SHA1RNDS4  $2, X2, X0
	SHA1MSG1   X4, X3
	PXOR       X4, X6
	// rounds 56-59
	SHA1NEXTE  X5, X1
	MOVO       X0, X2
	SHA1MSG2   X5, X6
	SHA1RNDS4  $2, X1, X0
	SHA1MSG1   X5, X4
	PXOR       X5, X3
	// rounds 60-63
	SHA1NEXTE  X6, X2
	MOVO       X0, X1
	SHA1MSG2   X6, X3
	SHA1RNDS4  $3, X2, X0
	SHA1MSG1   X6, X5
	PXOR       X6, X4
	// rounds 64-67
	SHA1NEXTE  X3, X1
	MOVO       X0, X2
	SHA1MSG2   X3, X4
	SHA1RNDS4  $3, X1, X0
	SHA1MSG1   X3, X6
	PXOR       X3, X5
	// rounds 68-71
	SHA1NEXTE  X4, X2
	MOVO       X0, X1
	SHA1MSG2   X4, X5
	SHA1RNDS4  $3, X2, X0
	PXOR       X4, X6
	// rounds 72-75
	SHA1NEXTE  X5, X1
	MOVO       X0, X2
	SHA1MSG2   X5, X6
	SHA1RNDS4  $3, X1, X0
	// rounds 76-79
	SHA1NEXTE  X6, X2
	MOVO       X0, X1
	SHA1RNDS4  $3, X2, X0

	SHA1NEXTE X9, X1
	PADDD     X8, X0

	ADDQ $64, SI
	CMPQ SI, DX
	JNE  loop

	PSHUFD $0x1b, X0, X0
	MOVOU  X0, (DI)
	PEXTRD $3, X1, 16(DI)

done:
	RET

// flipmask reverses the 16 bytes of a register: big-endian message words
// land in the dword order SHA1RNDS4 expects, W[0] in the top lane.
DATA flipmask<>+0(SB)/8, $0x08090a0b0c0d0e0f
DATA flipmask<>+8(SB)/8, $0x0001020304050607
GLOBL flipmask<>(SB), RODATA|NOPTR, $16
