package dsp

import (
	"math"
	"testing"
)

// clipUnguarded is ClipResidual without the sqrt pre-filter: the form the
// adaptive filters used before it, which defines the clip decisions.
func clipUnguarded(e float64, errVar *float64) float64 {
	*errVar = 0.998**errVar + 0.002*e*e
	if limit := 3 * math.Sqrt(*errVar); limit > 0 && (e > limit || e < -limit) {
		if e > 0 {
			return limit
		}
		return -limit
	}
	return e
}

func checkClip(t *testing.T, v0, e float64) {
	t.Helper()
	vg, vu := v0, v0
	got, want := ClipResidual(e, &vg), clipUnguarded(e, &vu)
	if !sameBits(got, want) || !sameBits(vg, vu) {
		t.Fatalf("errVar %v, e %v: clipped to %v (variance %v), unguarded %v (variance %v)",
			v0, e, got, vg, want, vu)
	}
}

// clipBoundary returns the residual at which, starting from variance v0,
// the updated variance puts e exactly on the clip limit:
// e² = 9·(0.998·v0 + 0.002·e²).
func clipBoundary(v0 float64) float64 { return math.Sqrt(9 * 0.998 * v0 / (1 - 9*0.002)) }

// TestClipResidualMatchesUnguarded pins the sqrt pre-filter as a pure
// speed-up: the clipped value and the variance match the unguarded form
// bit for bit, for residuals walked ulp by ulp across the clip boundary
// at variances from subnormal to huge (the pre-filter's 2⁻¹⁰⁰⁰ cut-over
// included), and for zero, infinite and NaN inputs.
func TestClipResidualMatchesUnguarded(t *testing.T) {
	variances := []float64{
		0, 5e-324, 1e-320, 2.2250738585072014e-308, 1e-305,
		0x1p-1001, math.Nextafter(0x1p-1000, 0), 0x1p-1000, 0x1p-999,
		1e-300, 1e-30, 1e-12, 1e-3, 0.25, 1, 7, 1e12, 1e150, 1e300,
		math.Inf(1), math.NaN(),
	}
	for _, v0 := range variances {
		for _, e := range []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(), 1, -1} {
			checkClip(t, v0, e)
		}
		b := clipBoundary(v0)
		if b == 0 || math.IsInf(b, 0) || math.IsNaN(b) {
			continue
		}
		for _, sign := range []float64{1, -1} {
			e := sign * b
			for k := 0; k < 64; k++ {
				e = math.Nextafter(e, 0)
			}
			for k := 0; k < 128; k++ {
				checkClip(t, v0, e)
				e = math.Nextafter(e, math.Inf(int(sign)))
			}
			// The pre-filter's own margin: residuals either side of
			// e² = 8.99·v.
			for _, r := range []float64{0.9985, 0.999, 0.9995, 1.0005} {
				checkClip(t, v0, sign*b*r)
			}
		}
	}
	// A running stream with impulses: the two forms stay in lock step.
	rng := newTapRNG(11)
	vg, vu := 0.0, 0.0
	for i := 0; i < 20000; i++ {
		e := rng.NormFloat64()
		if i%97 == 0 {
			e *= 40
		}
		if got, want := ClipResidual(e, &vg), clipUnguarded(e, &vu); !sameBits(got, want) || !sameBits(vg, vu) {
			t.Fatalf("sample %d: clipped %v, unguarded %v", i, got, want)
		}
	}
}
