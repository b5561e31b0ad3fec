package dsp

// Tap kernels: the per-sample inner loops of every adaptive filter and
// streaming FIR in the repository (core.LANC, anc.FxLMS, anc.AdaptiveFilter,
// StreamConvolver). They run on every sample of every session, so they get
// a SIMD implementation where the CPU has one (AVX2 on amd64, chosen once at
// init) and a portable Go implementation everywhere else.
//
// Canonical summation order. Every sum these kernels return is evaluated in
// one fixed order, whatever the implementation:
//
//   - four lane accumulators start at +0; term i (in slice order) is added
//     to lane i mod 4, for i < 4·⌊n/4⌋, in increasing i;
//   - the lanes combine as (lane0 + lane2) + (lane1 + lane3);
//   - the remaining n mod 4 terms are added to that sum in increasing i.
//
// Each term and each weight update is rounded on its own: no implementation
// fuses a multiply with an add (no FMA). The Go code below spells this out
// with explicit float64(...) conversions, which the language specification
// defines as rounding points the compiler may not contract across. So the
// assembly and Go paths return the same bits for every input; the only
// exception is the payload of a NaN result, which is NaN on both.
//
// Callers pair taps with samples index by index, walking forward; filters
// whose natural pairing is reversed (tap k against x(t−k) in an
// oldest-first window) store their taps reversed instead.

// Dot returns Σ a[i]·b[i] over i < len(a), in the canonical order. b must be
// at least as long as a.
func Dot(a, b []float64) float64 {
	return dot(a, b[:len(a)])
}

// UpdateDot is the fused LMS step: it sets w[i] ← w[i]·leak − muE·fx[i] for
// i < len(w) and returns Σ w[i]·x[i] over the updated weights, in the
// canonical order — bit-identical to Update followed by Dot. leak = 1 is the
// no-leak update (w·1 == w exactly). fx and x must be at least as long as w.
func UpdateDot(w, fx, x []float64, leak, muE float64) float64 {
	return updateDot(w, fx[:len(w)], x[:len(w)], leak, muE)
}

// Update sets w[i] ← w[i]·leak − muE·fx[i] for i < len(w), with each
// product rounded before the subtraction. fx must be at least as long as w.
func Update(w, fx []float64, leak, muE float64) {
	update(w, fx[:len(w)], leak, muE)
}

// dotGeneric is the portable canonical-order dot product. len(b) == len(a).
func dotGeneric(a, b []float64) float64 {
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= len(a); i += 4 {
		aa := a[i : i+4 : i+4]
		bb := b[i : i+4 : i+4]
		s0 += float64(aa[0] * bb[0])
		s1 += float64(aa[1] * bb[1])
		s2 += float64(aa[2] * bb[2])
		s3 += float64(aa[3] * bb[3])
	}
	s := (s0 + s2) + (s1 + s3)
	for ; i < len(a); i++ {
		s += float64(a[i] * b[i])
	}
	return s
}

// updateDotGeneric is the portable fused update and canonical-order dot
// product. len(fx) == len(x) == len(w).
func updateDotGeneric(w, fx, x []float64, leak, muE float64) float64 {
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= len(w); i += 4 {
		ww := w[i : i+4 : i+4]
		ff := fx[i : i+4 : i+4]
		xx := x[i : i+4 : i+4]
		w0 := float64(ww[0]*leak) - float64(muE*ff[0])
		w1 := float64(ww[1]*leak) - float64(muE*ff[1])
		w2 := float64(ww[2]*leak) - float64(muE*ff[2])
		w3 := float64(ww[3]*leak) - float64(muE*ff[3])
		ww[0], ww[1], ww[2], ww[3] = w0, w1, w2, w3
		s0 += float64(w0 * xx[0])
		s1 += float64(w1 * xx[1])
		s2 += float64(w2 * xx[2])
		s3 += float64(w3 * xx[3])
	}
	s := (s0 + s2) + (s1 + s3)
	for ; i < len(w); i++ {
		wi := float64(w[i]*leak) - float64(muE*fx[i])
		w[i] = wi
		s += float64(wi * x[i])
	}
	return s
}

// updateGeneric is the portable leaky LMS weight update. len(fx) == len(w).
func updateGeneric(w, fx []float64, leak, muE float64) {
	for i := range w {
		w[i] = float64(w[i]*leak) - float64(muE*fx[i])
	}
}
