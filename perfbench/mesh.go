package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"time"

	"mute/internal/mesh"
	"mute/internal/sim"
)

const (
	// meshOpsPerSecond sizes the mesh run: a 4 s cell takes about 150 ms
	// on a 2-vCPU host, and p90 needs at least 100 cells (--seconds 20).
	meshOpsPerSecond = 5
	meshCellSeconds  = 4
	// meshCells distinct cells are cycled through: enough that the mean
	// depth varies little from seed to seed, few enough that every cell
	// runs several times per run and each repeat must reproduce its first
	// output.
	meshCells = 50
)

func meshCell(seed uint64) sim.MeshScenario {
	return sim.MeshScenario{
		Duration:    meshCellSeconds,
		Relays:      50,
		Seed:        seed,
		Walking:     true,
		ChurnPerMin: 0.10,
	}
}

func runMesh(seed uint64, seconds int, tr *tracer) (*outcome, error) {
	ops := meshOpsPerSecond * seconds
	o := &outcome{}
	first := make([]string, meshCells)
	var rep mesh.Report
	var residualSum float64
	h := sha256.New()
	for i := 0; i < ops; i++ {
		if k := i * setupReps / ops; i == 0 || k != (i-1)*setupReps/ops {
			// Set-up is the first cell; later repetitions use seeds the
			// measured cells do not.
			t0 := time.Now()
			root := tr.open(int64(-1-k), "setup", -1, t0)
			_, err := sim.RunMesh(meshCell(seed*7919 + 1000 + uint64(k)))
			done := time.Now()
			tr.add(int64(-1-k), "sim.RunMesh", root, t0, done)
			tr.close(root, done)
			if err != nil {
				return nil, err
			}
			o.setupNS = append(o.setupNS, float64(done.Sub(t0)))
		}
		cell := i % meshCells
		t0 := time.Now()
		root := tr.open(int64(i), "op", -1, t0)
		r, err := sim.RunMesh(meshCell(seed*7919 + uint64(cell)))
		done := time.Now()
		tr.add(int64(i), "sim.RunMesh", root, t0, done)
		tr.close(root, done)
		o.attempted++
		if err != nil {
			logf("cell %d: %v", i, err)
			o.failed++
			continue
		}
		o.opNS = append(o.opNS, float64(done.Sub(t0)))
		o.busyPerAudio = append(o.busyPerAudio, float64(done.Sub(t0))/meshCellSeconds)
		o.streamSeconds += meshCellSeconds
		d := fmt.Sprintf("%x %+v %d %d", r.ResidualDB, r.Report, r.MaxLeadSamples, r.FaultEvents)
		if i < meshCells {
			first[cell] = d
			h.Write([]byte(d))
			residualSum += r.ResidualDB
		} else if d != first[cell] {
			logf("cell %d differs from its first run", i)
			o.failed++
		}
		addReport(&rep, r.Report)
	}
	o.digest = hex.EncodeToString(h.Sum(nil))
	o.depthDB = -residualSum / meshCells
	o.memMB = liveHeapMB()
	if tr != nil {
		o.layers = map[string]float64{
			"mesh.rounds":                 float64(rep.Rounds),
			"mesh.correlations_per_round": ratio(float64(rep.Correlations), float64(rep.Rounds)),
			"mesh.distress_rounds":        float64(rep.DistressRounds),
			"mesh.handoffs":               float64(rep.Handoffs),
			"mesh.flaps_suppressed":       float64(rep.FlapsSuppressed),
			"mesh.handoff_ratio":          ratio(float64(rep.Handoffs), float64(rep.Handoffs+rep.FlapsSuppressed)),
			"mesh.orphaned_samples":       float64(rep.OrphanedSamples),
		}
	}
	o.trace = tr
	return o, nil
}

func addReport(dst *mesh.Report, r mesh.Report) {
	dst.Rounds += r.Rounds
	dst.Correlations += r.Correlations
	dst.DistressRounds += r.DistressRounds
	dst.Handoffs += r.Handoffs
	dst.FlapsSuppressed += r.FlapsSuppressed
	dst.OrphanedSamples += r.OrphanedSamples
}
