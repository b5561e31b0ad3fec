package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"time"

	"mute/internal/acoustics"
	"mute/internal/experiments"
	"mute/internal/telemetry"
)

// evalOpsPerSecond sizes the eval run: a Figure 12 takes 120-200 ms on a
// 2-vCPU host, and p90 needs at least 100 figures (--seconds 20).
const evalOpsPerSecond = 5

// evalStreamSeconds is the audio one Figure 12 simulates: four schemes,
// 12 s scenes each.
const evalStreamSeconds = 4 * 12

func runEval(seed uint64, seconds int, tr *tracer) (*outcome, error) {
	ops := evalOpsPerSecond * seconds
	o := &outcome{}
	var reg *telemetry.Registry
	if tr != nil {
		reg = telemetry.NewRegistry()
	}
	var want string
	for i := 0; i < ops; i++ {
		if k := i * setupReps / ops; i == 0 || k != (i-1)*setupReps/ops {
			// A cold figure: the room-response cache cleared and, after the
			// first, a seed whose renders are not cached. The first uses
			// the measured seed, so the measured figures run warm.
			acoustics.ClearRIRCache()
			s := seed
			if k > 0 {
				s = seed + uint64(k)*1_000_003
			}
			t0 := time.Now()
			root := tr.open(int64(-1-k), "setup", -1, t0)
			fig, err := experiments.Fig12(experiments.Config{Workers: 1, Seed: s})
			done := time.Now()
			tr.add(int64(-1-k), "experiments.Fig12", root, t0, done)
			tr.close(root, done)
			if err != nil {
				return nil, err
			}
			o.setupNS = append(o.setupNS, float64(done.Sub(t0)))
			if k == 0 {
				want = figureDigest(fig)
			}
		}
		t0 := time.Now()
		root := tr.open(int64(i), "op", -1, t0)
		fig, err := experiments.Fig12(experiments.Config{Workers: 1, Seed: seed, Telemetry: reg})
		done := time.Now()
		tr.add(int64(i), "experiments.Fig12", root, t0, done)
		tr.close(root, done)
		o.attempted++
		if err != nil {
			logf("figure %d: %v", i, err)
			o.failed++
			continue
		}
		o.opNS = append(o.opNS, float64(done.Sub(t0)))
		o.busyPerAudio = append(o.busyPerAudio, float64(done.Sub(t0))/evalStreamSeconds)
		o.streamSeconds += evalStreamSeconds
		if d := figureDigest(fig); d != want {
			logf("figure %d differs from the cold figure of the same seed", i)
			o.failed++
		}
		if i == 0 {
			o.depthDB = hollowDepth(fig)
		}
	}
	o.digest = want
	o.memMB = liveHeapMB()
	if tr != nil {
		n := float64(len(o.opNS))
		stage := func(name string) float64 { return reg.Timer(name).Sum() * 1e3 / n }
		figMS := sum(o.opNS) / 1e6 / n
		o.layers = map[string]float64{
			"sim.stage.acoustics_ms": stage("sim.stage.acoustics"),
			"sim.stage.link_ms":      stage("sim.stage.link"),
			"sim.stage.cancel_ms":    stage("sim.stage.cancel"),
			"sim.samples":            float64(reg.Snapshot().Counters["sim.samples"]) / n,
		}
		o.layers["experiments.self_ms"] = figMS - o.layers["sim.stage.acoustics_ms"] -
			o.layers["sim.stage.link_ms"] - o.layers["sim.stage.cancel_ms"]
	}
	o.trace = tr
	return o, nil
}

// hollowDepth is MUTE_Hollow's full-band average cancellation in Figure
// 12, the headline quality number of the figure. The figure plots
// residual against the uncancelled level, so the depth is its negative.
func hollowDepth(fig *experiments.Figure) float64 {
	for _, s := range fig.Series {
		if s.Name != "MUTE_Hollow" {
			continue
		}
		var sum float64
		var n int
		for i, x := range s.X {
			if x < 4000 {
				sum += s.Y[i]
				n++
			}
		}
		return -sum / float64(n)
	}
	return math.NaN()
}

// figureDigest hashes every series of a figure bit for bit.
func figureDigest(fig *experiments.Figure) string {
	h := sha256.New()
	var b [8]byte
	for _, s := range fig.Series {
		h.Write([]byte(s.Name))
		for _, v := range append(append([]float64(nil), s.X...), s.Y...) {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
