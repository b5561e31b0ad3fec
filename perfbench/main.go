// Command perfbench is the repository benchmark. It drives the system
// from outside through public functions, one goroutine and one fleet
// shard, on four workloads:
//
//	serve-steady  fleet.Server, homogeneous fleet, light impairments
//	serve-churn   fleet.Server, heterogeneous ageing fleet, admissions
//	              and teardown every block, heavier impairments
//	eval          experiments.Fig12 back to back
//	mesh          sim.RunMesh dense-mesh cells
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload serve-steady --seed 1 --seconds 20 --trace 0
//
// Every run does a fixed amount of work derived from --seconds (audio
// blocks or ops, never "run until the clock says stop"), so two runs of a
// seed do identical work. The last line of standard output is one JSON
// object: correct, attempted, failed and the metrics. With --trace 0 the
// metrics are the end-to-end ones; with --trace 1 the workload runs once
// untraced and once with spans around every public call, and the metrics
// are the per-layer ones. NOTES.md gives the reasons for the workloads and
// the host-noise measurements the run lengths are sized against.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// outDir holds everything the benchmark writes: the cross-run digest
// store and the traced runs' span files. It is relative to the working
// directory, the root of the checkout.
const outDir = ".bench_build/perfbench"

// setupReps is how many times each run sets the workload up. The
// repetitions are spread over the run so that their median does not rest
// on one stretch of host speed (see NOTES.md).
const setupReps = 9

// outcome is what one pass of a workload measured.
type outcome struct {
	setupNS []float64 // one entry per set-up repetition
	opNS    []float64 // one entry per op: a block, a figure or a cell

	// streamSeconds is the audio processed by every stream of every op (a
	// session-block is 10 ms of one stream). busyPerAudio holds, per op,
	// the time the system under test was busy (generator work and waits
	// excluded) per second of audio processed; capacity is planned on its
	// 90th percentile, so that nine ops in ten fit.
	streamSeconds float64
	busyPerAudio  []float64

	depthDB float64 // cancellation depth, higher is better
	digest  string  // hash of the outputs the depth is computed from

	attempted, failed int64
	memMB             float64 // live heap after a forced GC, workload state still live
	// clockDependent is set when the fleet's pressure ladder left NORMAL:
	// the outputs then legitimately depend on wall-clock timing.
	clockDependent bool

	layers map[string]float64 // per-layer metrics, traced pass only
	trace  *tracer
}

type workload struct {
	run func(seed uint64, seconds int, tr *tracer) (*outcome, error)
	// mustNotFail marks the workloads on which any failed op makes the
	// run incorrect.
	mustNotFail bool
}

var workloads = map[string]workload{
	"serve-steady": {runServeSteady, true},
	"serve-churn":  {runServeChurn, false},
	"eval":         {runEval, true},
	"mesh":         {runMesh, true},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	if err := mainErr(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func mainErr() error {
	name := flag.String("workload", "", "workload: serve-steady, serve-churn, eval or mesh")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 20, "run length; fixes the amount of work")
	traceFlag := flag.Int("trace", 0, "1 runs the workload untraced and traced and reports per-layer metrics")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *seconds < 1 || *seed == 0 {
		return fmt.Errorf("need --seconds >= 1 and --seed >= 1")
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		return fmt.Errorf("--trace must be 0 or 1")
	}

	out, err := w.run(*seed, *seconds, nil)
	if err != nil {
		return err
	}
	res := result{Correct: true, Attempted: out.attempted, Failed: out.failed, Metrics: map[string]metric{}}
	check := func(ok bool, format string, args ...any) {
		if !ok {
			res.Correct = false
			fmt.Fprintf(os.Stderr, "CHECK FAILED: "+format+"\n", args...)
		}
	}
	check(len(out.opNS) > 0 && out.attempted > 0, "no ops ran")
	check(!math.IsNaN(out.depthDB) && !math.IsInf(out.depthDB, 0), "cancellation depth %v is not finite", out.depthDB)
	if w.mustNotFail {
		check(out.failed == 0, "%d of %d operations failed", out.failed, out.attempted)
	}
	if out.clockDependent {
		overload("untraced")
	} else {
		ok, err := checkDigest(*name, *seed, *seconds, out)
		if err != nil {
			return err
		}
		check(ok, "outputs differ from an earlier run of the same seed")
	}

	if *traceFlag == 0 {
		res.Metrics = endToEnd(out)
	} else {
		runtime.GC()
		traced, err := w.run(*seed, *seconds, newTracer())
		if err != nil {
			return err
		}
		if traced.clockDependent {
			overload("traced")
		}
		check(traced.digest == out.digest || out.clockDependent || traced.clockDependent,
			"traced outputs differ from untraced outputs")
		check(traced.depthDB == out.depthDB || out.clockDependent || traced.clockDependent,
			"traced depth %.17g dB differs from untraced %.17g dB", traced.depthDB, out.depthDB)
		res.Metrics = perLayer(out, traced)
		path := filepath.Join(outDir, fmt.Sprintf("trace-%s-seed%d.jsonl", *name, *seed))
		if err := traced.trace.write(path); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %d spans to %s\n", len(traced.trace.spans), path)
		traced.trace.report(os.Stderr)
	}
	summary(os.Stderr, *name, out, res)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// endToEnd derives the end-to-end metrics from an untraced pass.
func endToEnd(o *outcome) map[string]metric {
	return map[string]metric{
		"setup_s":           {median(o.setupNS) / 1e9, "s"},
		"latency_p50_ms":    {quantile(o.opNS, 0.5) / 1e6, "ms"},
		"latency_p90_ms":    {quantile(o.opNS, 0.9) / 1e6, "ms"},
		"sessions_per_core": {1e9 / quantile(o.busyPerAudio, 0.9), "sessions"},
		"realtime_x":        {o.streamSeconds / (sum(o.opNS) / 1e9), "x"},
		"cancel_depth_db":   {o.depthDB, "dB"},
		"mem_mb":            {o.memMB, "MB"},
	}
}

// p99 is the 99th percentile of op latency in ms where at least ten ops
// lie beyond it, and 0 where too few ops ran for one.
func p99(opNS []float64) float64 {
	if float64(len(opNS))*0.01 < 10 {
		return 0
	}
	return quantile(opNS, 0.99) / 1e6
}

// checkDigest compares a run's outputs with the first run of the same
// seed and length made by the same benchmark binary, and records them when
// there is none yet.
func checkDigest(name string, seed uint64, seconds int, o *outcome) (bool, error) {
	bin, err := binaryHash()
	if err != nil {
		return false, err
	}
	dir := filepath.Join(outDir, "digests")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return false, err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-%ds-%s", name, seed, seconds, bin[:16]))
	got := fmt.Sprintf("%s %.17g\n", o.digest, o.depthDB)
	want, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return true, os.WriteFile(path, []byte(got), 0o644)
	}
	if err != nil {
		return false, err
	}
	if string(want) != got {
		fmt.Fprintf(os.Stderr, "digest now %q, before %q\n", strings.TrimSpace(got), strings.TrimSpace(string(want)))
		return false, nil
	}
	return true, nil
}

// binaryHash identifies the running benchmark build, so that outputs are
// only compared between runs of the same program.
func binaryHash() (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(exe)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

func summary(w io.Writer, name string, o *outcome, res result) {
	fmt.Fprintf(w, "%s: %d ops, %d set-ups, depth %.4f dB, digest %s\n", name, len(o.opNS), len(o.setupNS), o.depthDB, o.digest[:16])
	fmt.Fprintf(w, "  op latency (ms): mean %.4f p10 %.4f p50 %.4f p90 %.4f p99 %.4f max %.4f\n",
		sum(o.opNS)/float64(len(o.opNS))/1e6, quantile(o.opNS, 0.1)/1e6, quantile(o.opNS, 0.5)/1e6,
		quantile(o.opNS, 0.9)/1e6, quantile(o.opNS, 0.99)/1e6, quantile(o.opNS, 1)/1e6)
	keys := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "  %-36s %14.6g %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// median returns the middle of xs (the mean of the two middle values for
// an even count).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// liveHeapMB forces a collection and returns the live heap in MB. The
// second collection empties the sync.Pool victim caches, so the figure
// does not depend on when the last automatic collection ran.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// depthDB is the cancellation depth 10·log10(ambient ÷ residual).
func depthDB(noise, res float64) float64 {
	if noise == 0 || res == 0 {
		return 0
	}
	return 10 * math.Log10(noise/res)
}

// ratio returns a ÷ b, or 0 when nothing was counted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// overload reports a pass in which the fleet's pressure ladder left
// NORMAL: a real overload event, whose outputs depend on wall-clock timing
// and so are not compared.
func overload(pass string) {
	logf("OVERLOAD: the fleet pressure ladder left NORMAL in the %s pass; its outputs depend on timing and are not compared", pass)
}

func logf(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) }

// layerMetrics lists every per-layer metric a traced run reports. A
// workload that never reaches a layer reports that layer's values as 0.
var layerMetrics = []metricSpec{
	{"fleet.tick_ns_per_session_block", "ns"},
	{"fleet.ingest_ns_per_frame", "ns"},
	{"fleet.open_ns_p50", "ns"},
	{"fleet.open_ns_p99", "ns"},
	{"fleet.close_ns_p50", "ns"},
	{"fleet.setup_cache_hit_ratio", "ratio"},
	{"fleet.pool_news", "count"},
	{"fleet.pool_reuse_ratio", "ratio"},
	{"fleet.deadline_miss", "count"},
	{"fleet.pressure_max", "rung"},
	{"fleet.bad_envelope", "count"},
	{"fleet.unknown_session", "count"},
	{"fleet.quarantined", "count"},
	{"fleet.refused", "count"},
	{"fleet.shed", "count"},
	{"stream.frames_late", "count"},
	{"stream.frames_dropped", "count"},
	{"stream.frames_duplicate", "count"},
	{"stream.concealed_ratio", "ratio"},
	{"gen.ns_per_block", "ns"},
	{"gen.lag_p99_ms", "ms"},
	{"graph.samples", "count"},
	{"core.cancel_depth_db.td", "dB"},
	{"core.cancel_depth_db.fdaf", "dB"},
	{"sim.stage.acoustics_ms", "ms"},
	{"sim.stage.link_ms", "ms"},
	{"sim.stage.cancel_ms", "ms"},
	{"sim.samples", "count"},
	{"experiments.self_ms", "ms"},
	{"mesh.rounds", "count"},
	{"mesh.correlations_per_round", "count"},
	{"mesh.distress_rounds", "count"},
	{"mesh.handoffs", "count"},
	{"mesh.flaps_suppressed", "count"},
	{"mesh.handoff_ratio", "ratio"},
	{"mesh.orphaned_samples", "count"},
	{"latency_p99_ms", "ms"},
	{"op.self_pct", "%"},
	{"trace.spans", "count"},
	{"trace.overhead_pct", "%"},
	{"fail_pct", "%"},
}

type metricSpec struct{ name, unit string }

// perLayer assembles the per-layer metrics of a traced run from its
// untraced and traced passes.
func perLayer(untraced, traced *outcome) map[string]metric {
	var opTotal, opSelf float64
	for path, a := range traced.trace.tree() {
		if path == "block" || path == "op" {
			opTotal += a.total
			opSelf += a.self
		}
	}
	p50u, p50t := median(untraced.opNS), median(traced.opNS)
	extra := map[string]float64{
		"latency_p99_ms":     p99(untraced.opNS),
		"op.self_pct":        100 * ratio(opSelf, opTotal),
		"trace.spans":        float64(len(traced.trace.spans)),
		"trace.overhead_pct": 100 * (p50t - p50u) / p50u,
		"fail_pct":           100 * ratio(float64(untraced.failed), float64(untraced.attempted)),
	}
	out := map[string]metric{}
	for _, m := range layerMetrics {
		v, ok := traced.layers[m.name]
		if !ok {
			v = extra[m.name]
		}
		out[m.name] = metric{v, m.unit}
	}
	return out
}
