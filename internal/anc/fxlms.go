package anc

import (
	"fmt"

	"mute/internal/dsp"
)

// FxLMS is the conventional feedforward ANC algorithm used by today's
// headphones (Section 2 of the paper): a causal adaptive filter h_AF driven
// by the reference microphone, whose updates are computed against the
// reference signal filtered through an estimate of the secondary path
// ĥ_se (speaker → error microphone).
//
// The processing-latency limitation of real headphones is modeled by
// PipelineDelay: the anti-noise computed from reference sample x(t) only
// reaches the speaker PipelineDelay samples later, which is precisely the
// missed deadline of Figure 5(a).
type FxLMS struct {
	cfg LMSConfig
	w   []float64 // h_AF weights (causal taps only)
	// Histories are doubled ring buffers: each sample is written at p and
	// p+Taps, so x[p : p+Taps] is always a contiguous newest-first window
	// — the same tap order as a shifted array, without the two per-sample
	// memmoves.
	x      []float64 // reference history ring
	fx     []float64 // filtered-x history ring (x through ĥ_se)
	p      int       // ring cursor: index of the newest sample
	sec    *dsp.StreamConvolver
	fxPow  float64
	xPow   float64
	errVar float64 // running residual variance for dsp.ClipResidual
}

// NewFxLMS creates the conventional-ANC baseline. secPathEst is the
// secondary-path estimate ĥ_se used for the filtered-x computation.
func NewFxLMS(cfg LMSConfig, secPathEst []float64) (*FxLMS, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(secPathEst) == 0 {
		return nil, fmt.Errorf("anc: empty secondary path estimate")
	}
	return &FxLMS{
		cfg: cfg,
		w:   make([]float64, cfg.Taps),
		x:   make([]float64, 2*cfg.Taps),
		fx:  make([]float64, 2*cfg.Taps),
		sec: dsp.NewStreamConvolver(secPathEst),
	}, nil
}

// Push shifts a new reference-microphone sample into the histories.
func (f *FxLMS) Push(x float64) {
	n := len(f.w)
	oldX := f.x[f.p+n-1] // the sample about to leave the window
	old := f.fx[f.p+n-1]
	f.p--
	if f.p < 0 {
		f.p = n - 1
	}
	f.x[f.p] = x
	f.x[f.p+n] = x
	f.xPow += x*x - oldX*oldX
	if f.xPow < 0 {
		f.xPow = 0
	}
	fxNew := f.sec.Process(x)
	f.fx[f.p] = fxNew
	f.fx[f.p+n] = fxNew
	f.fxPow += fxNew*fxNew - old*old
	if f.fxPow < 0 {
		f.fxPow = 0
	}
}

// AntiNoise computes the current anti-noise output α(t) = Σ w[k] x(t-k),
// summed in the tap kernels' canonical order (see dsp.Dot).
func (f *FxLMS) AntiNoise() float64 {
	return dsp.Dot(f.w, f.x[f.p:])
}

// Adapt applies the filtered-x LMS update given the measured residual
// error e(t) from the error microphone (Equation 7, causal taps only):
// w[k] -= µ e(t) fx(t-k).
func (f *FxLMS) Adapt(e float64) {
	e = dsp.ClipResidual(e, &f.errVar)
	mu := f.cfg.Mu
	if f.cfg.Normalized {
		// Regularized NLMS. The raw reference power enters the
		// normalizer so that sound concentrated where the secondary
		// path has little gain (e.g. rumble below the transducer's
		// high-pass corner) cannot inflate the effective step: filtered-x
		// power alone would be tiny there while the gradient noise is not.
		mu /= f.fxPow + 0.05*f.xPow + 1e-3
	}
	// Per tap: w·leak − (mu·e)·fx, each product rounded on its own; leak 1
	// (no leakage) leaves the weight term exact.
	dsp.Update(f.w, f.fx[f.p:], f.cfg.leakFactor(), mu*e)
}

// Weights returns a copy of h_AF.
func (f *FxLMS) Weights() []float64 {
	out := make([]float64, len(f.w))
	copy(out, f.w)
	return out
}

// SetWeights loads cached weights.
func (f *FxLMS) SetWeights(w []float64) error {
	if len(w) != len(f.w) {
		return fmt.Errorf("anc: weight length %d != taps %d", len(w), len(f.w))
	}
	copy(f.w, w)
	return nil
}

// Reset clears adaptation state (weights, histories, secondary filter).
func (f *FxLMS) Reset() {
	for i := range f.w {
		f.w[i] = 0
	}
	for i := range f.x {
		f.x[i] = 0
		f.fx[i] = 0
	}
	f.p = 0
	f.fxPow = 0
	f.xPow = 0
	f.errVar = 0
	f.sec.Reset()
}
