package dsp

// useAVX2 selects the AVX2 tap kernels. It is fixed at init from CPUID and
// XGETBV: the CPU must report AVX and AVX2, and the OS must save the YMM
// state across context switches.
var useAVX2 = hasAVX2()

// avx2MinTaps is the kernel length from which the AVX2 path is used.
// Shorter kernels have no full vector to process, and the assembly call
// costs more than the few scalar taps it would run; both paths return the
// same bits, so the cut-over is invisible in the results.
const avx2MinTaps = 4

func dot(a, b []float64) float64 {
	if useAVX2 && len(a) >= avx2MinTaps {
		return dotAVX2(a, b)
	}
	return dotGeneric(a, b)
}

func updateDot(w, fx, x []float64, leak, muE float64) float64 {
	if useAVX2 && len(w) >= avx2MinTaps {
		return updateDotAVX2(w, fx, x, leak, muE)
	}
	return updateDotGeneric(w, fx, x, leak, muE)
}

func update(w, fx []float64, leak, muE float64) {
	if useAVX2 && len(w) >= avx2MinTaps {
		updateAVX2(w, fx, leak, muE)
		return
	}
	updateGeneric(w, fx, leak, muE)
}

func hasAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const osxsave, avx = 1 << 27, 1 << 28
	if ecx1&osxsave == 0 || ecx1&avx == 0 {
		return false
	}
	// XCR0 bits 1 and 2: the OS saves XMM and YMM state.
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	const avx2 = 1 << 5
	return ebx7&avx2 != 0
}

// Implemented in taps_amd64.s. The slices passed with w or a must not be
// longer than the others; the exported wrappers reslice to guarantee it.

//go:noescape
func dotAVX2(a, b []float64) float64

//go:noescape
func updateDotAVX2(w, fx, x []float64, leak, muE float64) float64

//go:noescape
func updateAVX2(w, fx []float64, leak, muE float64)

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)
