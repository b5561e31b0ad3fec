package core

import (
	"math"
	"testing"

	"mute/internal/audio"
)

// bruteForcePowers recomputes the NLMS window powers the way the original
// O(N+L) rescan did: summing squares over tap offsets [-L, +N].
func bruteForcePowers(l *LANC) (xPow, fxPow float64) {
	for k := -l.cfg.NonCausalTaps; k <= l.cfg.CausalTaps; k++ {
		v := l.fxBuf.At(-k)
		fxPow += v * v
		u := l.xBuf.At(-k)
		xPow += u * u
	}
	return xPow, fxPow
}

// TestIncrementalPowerTracksBruteForce drives a long random stream through
// Push and checks at every sample that the O(1) sliding power update stays
// within 1e-9 of the brute-force recomputation. This guards the periodic
// exact rescan against floating-point drift in the add/subtract update.
func TestIncrementalPowerTracksBruteForce(t *testing.T) {
	cfg := Config{
		NonCausalTaps: 32,
		CausalTaps:    160,
		Mu:            0.05,
		Normalized:    true,
		SecondaryPath: []float64{0.8, 0.3, 0.1, -0.05},
	}
	l, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := audio.NewRNG(7)
	const samples = 20000
	for i := 0; i < samples; i++ {
		// Mix in occasional level jumps so the window power swings by an
		// order of magnitude, the regime where incremental drift shows.
		// (Kept within the range where 1e-9 absolute is well above the ulp
		// floor of the running sum.)
		x := rng.Norm()
		if i%3000 > 2500 {
			x *= 4
		}
		l.Push(x)
		wantX, wantFx := bruteForcePowers(l)
		if d := math.Abs(l.xPow - wantX); d > 1e-9 {
			t.Fatalf("sample %d: xPow drift %.3g (incremental %.12g, brute force %.12g)",
				i, d, l.xPow, wantX)
		}
		if d := math.Abs(l.fxPow - wantFx); d > 1e-9 {
			t.Fatalf("sample %d: fxPow drift %.3g (incremental %.12g, brute force %.12g)",
				i, d, l.fxPow, wantFx)
		}
	}
}

// TestStepMatchesSequentialCalls verifies the fused Step is bit-identical
// to the documented Adapt → Push → AntiNoise sequence, including with
// leakage, error delay, and NLMS normalization active. The limited cases
// shrink the non-causal window with LimitNonCausal to widths n ≢ N (mod 4),
// where the active tap prefix and the full window split differently into
// kernel lanes, and re-widen it halfway; the frozen cases hold adaptation
// (gain 0, the anti-noise-only path) and ramp it back, once by an explicit
// hold and once through loss-aware concealment.
func TestStepMatchesSequentialCalls(t *testing.T) {
	type seqCase struct {
		cfg Config
		// limits, when set, are applied with LimitNonCausal at sample 0 and
		// sample 2500.
		limits []int
		// frozen holds adaptation for 200 samples every 1500.
		frozen bool
		// conceal marks every 700th sample (and the 9 after it) concealed.
		conceal bool
	}
	cases := []seqCase{
		{cfg: Config{NonCausalTaps: 16, CausalTaps: 48, Mu: 0.05, Normalized: true,
			SecondaryPath: []float64{0.8, 0.3, 0.1}}},
		{cfg: Config{NonCausalTaps: 16, CausalTaps: 48, Mu: 0.05, Normalized: true, Leak: 0.0005,
			SecondaryPath: []float64{0.8, 0.3, 0.1}}},
		{cfg: Config{NonCausalTaps: 8, CausalTaps: 32, Mu: 0.02, Normalized: true, Leak: 0.0005, ErrorDelay: 5,
			SecondaryPath: []float64{0.8, 0.3, 0.1}}},
		{cfg: Config{NonCausalTaps: 12, CausalTaps: 24, Mu: 0.01,
			SecondaryPath: []float64{1, 0.2}}},
		{cfg: Config{NonCausalTaps: 16, CausalTaps: 48, Mu: 0.05, Normalized: true,
			SecondaryPath: []float64{0.8, 0.3, 0.1}}, limits: []int{13, 2}},
		{cfg: Config{NonCausalTaps: 16, CausalTaps: 48, Mu: 0.05, Normalized: true, Leak: 0.0005,
			SecondaryPath: []float64{0.8, 0.3, 0.1}}, limits: []int{5, 16}},
		{cfg: Config{NonCausalTaps: 8, CausalTaps: 32, Mu: 0.02, Normalized: true, Leak: 0.0005, ErrorDelay: 5,
			SecondaryPath: []float64{0.8, 0.3, 0.1}}, limits: []int{3, 6}},
		{cfg: Config{NonCausalTaps: 12, CausalTaps: 24, Mu: 0.01,
			SecondaryPath: []float64{1, 0.2}}, limits: []int{7, 1}, frozen: true},
		{cfg: Config{NonCausalTaps: 16, CausalTaps: 48, Mu: 0.05, Normalized: true, Leak: 0.0005,
			SecondaryPath: []float64{0.8, 0.3, 0.1}}, frozen: true},
		{cfg: Config{NonCausalTaps: 16, CausalTaps: 48, Mu: 0.05, Normalized: true, LossAware: true,
			SecondaryPath: []float64{0.8, 0.3, 0.1}}, limits: []int{11, 14}, conceal: true},
	}
	for ci, c := range cases {
		fused, err := New(c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		seq, err := New(c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		rng := audio.NewRNG(uint64(ci) + 3)
		errRng := audio.NewRNG(uint64(ci) + 91)
		for i := 0; i < 5000; i++ {
			if len(c.limits) > 0 && (i == 0 || i == 2500) {
				n := c.limits[i/2500]
				fused.LimitNonCausal(n)
				seq.LimitNonCausal(n)
			}
			if c.frozen && i%1500 == 1000 {
				fused.HoldAdaptation(200, 100)
				seq.HoldAdaptation(200, 100)
			}
			real := !c.conceal || i%700 >= 10
			x := rng.Norm()
			e := 0.3 * errRng.Norm()
			aFused := fused.StepMasked(x, e, real)
			seq.Adapt(e)
			seq.PushMasked(x, real)
			aSeq := seq.AntiNoise()
			if aFused != aSeq {
				t.Fatalf("case %d sample %d: fused %0.17g != sequential %0.17g",
					ci, i, aFused, aSeq)
			}
		}
		fw, sw := fused.Weights(), seq.Weights()
		for i := range fw {
			if fw[i] != sw[i] {
				t.Fatalf("case %d: weight %d diverged: %0.17g vs %0.17g", ci, i, fw[i], sw[i])
			}
		}
	}
}

// TestStepMatchesSequentialWithProfiling extends the equivalence check to
// profiling mode, where Step must recompute the anti-noise after a cached
// filter swap.
func TestStepMatchesSequentialWithProfiling(t *testing.T) {
	cfg := Config{
		NonCausalTaps: 16, CausalTaps: 48, Mu: 0.05, Normalized: true, Leak: 0.0005,
		SecondaryPath: []float64{0.8, 0.3, 0.1},
		Profiling:     true, SampleRate: 8000,
		ProfileWindow: 256, ProfileHop: 64, ProfileThreshold: 0.4, MaxProfiles: 4,
	}
	fused, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Alternate hum and white noise so profiles actually switch.
	hum := audio.NewMachineHum(5, 150, 8000, 0.6, 6)
	white := audio.NewWhiteNoise(6, 8000, 0.5)
	errRng := audio.NewRNG(77)
	const seg = 2000
	for i := 0; i < 6*seg; i++ {
		var x float64
		if (i/seg)%2 == 0 {
			x = hum.Next()
		} else {
			x = white.Next()
		}
		e := 0.3 * errRng.Norm()
		aFused := fused.Step(x, e)
		seq.Adapt(e)
		seq.Push(x)
		aSeq := seq.AntiNoise()
		if aFused != aSeq {
			t.Fatalf("sample %d: fused %0.17g != sequential %0.17g", i, aFused, aSeq)
		}
	}
	if fused.Switches() != seq.Switches() {
		t.Fatalf("switch counts diverged: %d vs %d", fused.Switches(), seq.Switches())
	}
	if fused.Switches() == 0 {
		t.Fatal("profiling never switched; test exercised nothing")
	}
}
