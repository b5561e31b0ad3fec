package dsp

import "math"

// ClipResidual is the robust (Huber-style) residual clipping shared by the
// adaptive filters: impulsive residuals (hammer strikes, clicks) carry
// gradients far outside the LMS stability region, so e is limited to three
// standard deviations of its recent history. It folds e into the running
// variance *errVar (an EWMA with weight 0.002) and returns e, or ±3·√errVar
// when e lies beyond that.
func ClipResidual(e float64, errVar *float64) float64 {
	v := 0.998**errVar + 0.002*e*e
	*errVar = v
	// Pre-filter before the exact check: clipping requires e² > 9·v up to a
	// relative rounding error of a few ulps, so when e² ≤ 8.99·v no clip was
	// possible and the per-sample sqrt is skipped. Below 2⁻¹⁰⁰⁰ the squares
	// lose that relative precision to underflow, so tiny variances always
	// take the exact check. The decision is bit-identical to the unguarded
	// form.
	if e*e > 8.99*v || v < 0x1p-1000 {
		if limit := 3 * math.Sqrt(v); limit > 0 && (e > limit || e < -limit) {
			if e > 0 {
				return limit
			}
			return -limit
		}
	}
	return e
}
