package dsp

import "testing"

// TestAVX2KernelsMatchGeneric calls the assembly kernels directly — also
// below the avx2MinTaps cut-over the dispatcher applies — and requires the
// same bits as the Go implementations for lengths 0–300, slice offsets 0–3,
// leak 1 and ≠ 1, with and without ±Inf, NaN, subnormal and ±0 inputs.
func TestAVX2KernelsMatchGeneric(t *testing.T) {
	if !useAVX2 {
		t.Skip("CPU or OS lacks AVX2")
	}
	rng := newTapRNG(9)
	for n := 0; n <= 300; n++ {
		for off := 0; off < 4; off++ {
			for _, specials := range []bool{false, true} {
				w, fx, x := tapInputs(rng, n, off, specials)
				if got, want := dotAVX2(w, x), dotGeneric(w, x); !sameBits(got, want) {
					t.Fatalf("n=%d off=%d dot: avx2 %v, generic %v", n, off, got, want)
				}
				for _, leak := range []float64{1, 0.9995} {
					muE := 0.013 * rng.NormFloat64()
					ga := append([]float64(nil), w...)
					gg := append([]float64(nil), w...)
					sa := updateDotAVX2(ga, fx, x, leak, muE)
					sg := updateDotGeneric(gg, fx, x, leak, muE)
					if !sameBits(sa, sg) {
						t.Fatalf("n=%d off=%d leak=%v updateDot sum: avx2 %v, generic %v", n, off, leak, sa, sg)
					}
					ua := append([]float64(nil), w...)
					updateAVX2(ua, fx, leak, muE)
					for i := range gg {
						if !sameBits(ga[i], gg[i]) || !sameBits(ua[i], gg[i]) {
							t.Fatalf("n=%d off=%d leak=%v w[%d]: updateDot %v, update %v, generic %v",
								n, off, leak, i, ga[i], ua[i], gg[i])
						}
					}
				}
			}
		}
	}
}
