// Package anc implements the classical adaptive-filtering machinery of
// active noise cancellation: LMS/NLMS weight adaptation, the filtered-x LMS
// (FxLMS) structure used by commercial headphones, and secondary-path
// estimation. The lookahead-aware algorithm (LANC) that is the paper's
// contribution builds on these primitives in package core.
package anc

import (
	"fmt"
	"math"

	"mute/internal/dsp"
)

// LMSConfig configures an adaptive FIR filter.
type LMSConfig struct {
	// Taps is the filter length.
	Taps int
	// Mu is the adaptation step size (gradient-descent rate µ in
	// Equation 6 of the paper).
	Mu float64
	// Normalized selects NLMS: the step is divided by the reference
	// signal power in the filter window, making convergence insensitive
	// to input level.
	Normalized bool
	// Leak is an optional leakage factor in [0, 1); each update shrinks
	// the weights by (1 - Leak*Mu), bounding weight drift under
	// persistent bias. 0 disables leakage.
	Leak float64
}

// Validate checks the configuration.
func (c LMSConfig) Validate() error {
	if c.Taps <= 0 {
		return fmt.Errorf("anc: taps must be positive, got %d", c.Taps)
	}
	if c.Mu <= 0 {
		return fmt.Errorf("anc: mu must be positive, got %g", c.Mu)
	}
	if c.Leak < 0 || c.Leak >= 1 {
		return fmt.Errorf("anc: leak %g outside [0, 1)", c.Leak)
	}
	return nil
}

// leakFactor returns the per-update weight leak 1 − Leak·Mu, or exactly 1
// without leakage.
func (c LMSConfig) leakFactor() float64 {
	if c.Leak > 0 {
		return 1 - c.Leak*c.Mu
	}
	return 1
}

// AdaptiveFilter is a causal transversal adaptive filter with LMS/NLMS
// updates. It is the workhorse for both system identification (secondary
// path estimation) and the conventional-ANC baseline.
type AdaptiveFilter struct {
	cfg LMSConfig
	w   []float64 // weights, w[0] multiplies the newest sample
	x   []float64 // reference history, x[0] newest
	pow float64   // running power of the history window (for NLMS)
}

// NewAdaptiveFilter creates a zero-initialized adaptive filter.
func NewAdaptiveFilter(cfg LMSConfig) (*AdaptiveFilter, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &AdaptiveFilter{
		cfg: cfg,
		w:   make([]float64, cfg.Taps),
		x:   make([]float64, cfg.Taps),
	}, nil
}

// Push shifts a new reference sample into the filter history.
func (f *AdaptiveFilter) Push(x float64) {
	old := f.x[len(f.x)-1]
	copy(f.x[1:], f.x)
	f.x[0] = x
	f.pow += x*x - old*old
	if f.pow < 0 {
		f.pow = 0
	}
}

// Output computes the current filter output y(t) = Σ w[k] x(t-k), summed
// in the tap kernels' canonical order (see dsp.Dot).
func (f *AdaptiveFilter) Output() float64 {
	return dsp.Dot(f.w, f.x)
}

// Adapt applies one LMS update with error e: w[k] += µ' e x(t-k), where µ'
// is Mu (LMS) or Mu normalized by window power (NLMS). The caller defines
// the error sign convention; for system identification e = d - y.
func (f *AdaptiveFilter) Adapt(e float64) {
	mu := f.cfg.Mu
	if f.cfg.Normalized {
		mu /= f.pow + 1e-8
	}
	// w·leak + (µ'e)·x is computed as w·leak − (−µ'e)·x: negating a factor
	// and subtracting the negated product are both exact, so the weights
	// are the same bits as the direct form.
	dsp.Update(f.w, f.x, f.cfg.leakFactor(), -(mu * e))
}

// Step pushes x, computes the prediction y, adapts toward desired d, and
// returns (y, e) with e = d - y. This is the classic system-identification
// iteration.
func (f *AdaptiveFilter) Step(x, d float64) (y, e float64) {
	f.Push(x)
	y = f.Output()
	e = d - y
	f.Adapt(e)
	return y, e
}

// Weights returns a copy of the current weights.
func (f *AdaptiveFilter) Weights() []float64 {
	out := make([]float64, len(f.w))
	copy(out, f.w)
	return out
}

// SetWeights overwrites the filter weights (used when loading a cached
// profile filter). The length must match the configured tap count.
func (f *AdaptiveFilter) SetWeights(w []float64) error {
	if len(w) != len(f.w) {
		return fmt.Errorf("anc: weight length %d != taps %d", len(w), len(f.w))
	}
	copy(f.w, w)
	return nil
}

// Reset zeroes weights and history.
func (f *AdaptiveFilter) Reset() {
	for i := range f.w {
		f.w[i] = 0
	}
	for i := range f.x {
		f.x[i] = 0
	}
	f.pow = 0
}

// Misalignment returns the normalized weight error ||w - h||² / ||h||²
// against a reference impulse response h (zero-padded or truncated to the
// filter length). It is the standard convergence metric for adaptive
// filters.
func (f *AdaptiveFilter) Misalignment(h []float64) float64 {
	var num, den float64
	for k := range f.w {
		var hk float64
		if k < len(h) {
			hk = h[k]
		}
		d := f.w[k] - hk
		num += d * d
		den += hk * hk
	}
	if den == 0 {
		return math.Inf(1)
	}
	return num / den
}
