//go:build amd64

package kernel

// cpuid executes CPUID with the given EAX/ECX inputs.
func cpuid(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads extended control register 0 (requires OSXSAVE).
func xgetbv() (eax, edx uint32)

// microAVX2 is the assembly 4×8 micro-kernel on YMM registers
// (micro_amd64.s): acc += Ap·Bp over kc packed k steps, mul-then-add
// rounding.
//
//go:noescape
func microAVX2(ap, bp *float64, kc int, acc *[MR * NR]float64)

// microAVX512 is the assembly 4×8 micro-kernel on ZMM registers
// (micro_amd64.s), with the same contract and rounding as microAVX2.
//
//go:noescape
func microAVX512(ap, bp *float64, kc int, acc *[MR * NR]float64)

// haveAVX2 and haveAVX512 are probed once at init; bestMicroPath
// picks the micro-kernel from them.
var (
	haveAVX2   = detectAVX2()
	haveAVX512 = detectAVX512()
)

// osxsaveAVX reports whether CPUID leaf 7 exists and the CPU has AVX
// with OS-managed extended state (OSXSAVE), the precondition for
// reading XCR0 and for any VEX or EVEX kernel.
func osxsaveAVX() bool {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	_, _, c, _ := cpuid(1, 0)
	return c&osxsave != 0 && c&avx != 0
}

// detectAVX2 reports whether the CPU supports AVX2 and the OS has
// enabled YMM state (OSXSAVE + XCR0 bits for XMM and YMM).
func detectAVX2() bool {
	if !osxsaveAVX() {
		return false
	}
	if lo, _ := xgetbv(); lo&0x6 != 0x6 {
		return false
	}
	_, b, _, _ := cpuid(7, 0)
	return b&(1<<5) != 0
}

// detectAVX512 reports whether the CPU supports AVX-512F
// (CPUID.7.0:EBX bit 16) and the OS saves the full ZMM state: XCR0
// bits 1–2 (XMM, YMM) and 5–7 (opmask, ZMM0–15 upper halves,
// ZMM16–31), i.e. XCR0 & 0xE6 == 0xE6.
func detectAVX512() bool {
	if !osxsaveAVX() {
		return false
	}
	if lo, _ := xgetbv(); lo&0xE6 != 0xE6 {
		return false
	}
	_, b, _, _ := cpuid(7, 0)
	return b&(1<<16) != 0
}
