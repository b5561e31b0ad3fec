package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"time"

	"mute/internal/audio"
	"mute/internal/fleet"
	"mute/internal/stream"
)

// serveSpec fixes one serving workload. Both serving workloads run the
// same open loop: users are simulated relays that transmit on the audio
// clock whether or not the server keeps up.
type serveSpec struct {
	sessions int
	faults   stream.LossParams
	// skewPPM re-stamps every third user's capture clock.
	skewPPM float64
	// churn retires each session after a seeded lifetime (mean: sessions
	// blocks, so about one Close and one Open per block) and admits a
	// replacement on a profile drawn from the variant pool.
	churn bool
}

const (
	blockPeriod = 10 * time.Millisecond // DefaultProfile: 80 samples at 8 kHz
	frameLen    = 80
	// lead is how many slots users transmit ahead of playout, as in the
	// fleet's own load generator.
	lead = 2
	// warmupTicks run during set-up so the measured blocks start with
	// every session's filter state faulted in.
	warmupTicks = 2
	// variantCount exceeds the fleet's 64-entry setup memo (two entries
	// per variant: the room render and the secondary-path estimate), so
	// admissions keep missing it.
	variantCount = 80
	// fdafEvery: variants (and users) with index a multiple of it run the
	// FDAF profile.
	fdafEvery = 4
)

// steadySpec's 192 sessions keep the slow-phase block p99 of a 2-vCPU
// host clear of the 10 ms deadline; at 256 it reached 9.5-13 ms.
var steadySpec = serveSpec{
	sessions: 192,
	faults:   stream.LossParams{Loss: 0.02, MeanBurst: 3, Reorder: 0.02, Duplicate: 0.01},
	skewPPM:  80,
}

// churnSpec carries fewer sessions than steadySpec: a quarter run the
// FDAF profile, which costs 2.5-3.5 times a time-domain session on a
// 2-vCPU host.
var churnSpec = serveSpec{
	sessions: 112,
	faults: stream.LossParams{Loss: 0.05, MeanBurst: 4, Reorder: 0.03, Duplicate: 0.02,
		JitterProb: 0.02, MaxJitter: 3},
	skewPPM: 120,
	churn:   true,
}

func runServeSteady(seed uint64, seconds int, tr *tracer) (*outcome, error) {
	return runServe(steadySpec, seed, seconds, tr)
}

func runServeChurn(seed uint64, seconds int, tr *tracer) (*outcome, error) {
	return runServe(churnSpec, seed, seconds, tr)
}

// relayUser is one simulated relay: seeded audio, a seeded impairment
// link and an optional clock skew.
type relayUser struct {
	id      uint32
	fdaf    bool
	rng     *audio.RNG
	link    *stream.LossyLink
	ring    []stream.Frame // frames in flight through link
	seq     uint32
	clock   uint64
	skewPPM float64

	variant  int   // index into the churn variant pool; -1 for DefaultProfile
	openTick int64 // server ticks before the session opened
	closeAt  int   // block at which churn retires the user; -1 never
}

func newRelayUser(seed uint64, id uint32, lp stream.LossParams, skewPPM float64) (*relayUser, error) {
	lp.Seed = seed*0x9e3779b97f4a7c15 + uint64(id)
	link, err := stream.NewLossyLink(lp)
	if err != nil {
		return nil, err
	}
	// A frame stays in the link for at most reorder (1) + MaxJitter +
	// duplicate (1) slots past its own.
	ring := make([]stream.Frame, lp.MaxJitter+4)
	for i := range ring {
		ring[i].Samples = make([]float64, frameLen)
	}
	return &relayUser{
		id:      id,
		rng:     audio.NewRNG(seed*0x2545f4914f6cdd1d + uint64(id)),
		link:    link,
		ring:    ring,
		skewPPM: skewPPM,
		closeAt: -1,
	}, nil
}

// slot generates the user's next frame and queues what its link delivers.
func (u *relayUser) slot(out *datagrams) error {
	f := &u.ring[int(u.seq)%len(u.ring)]
	for i := range f.Samples {
		f.Samples[i] = 0.4 * u.rng.Uniform()
	}
	ts := u.clock
	if u.skewPPM != 0 {
		ts = uint64(float64(u.clock) * (1 + u.skewPPM*1e-6))
	}
	f.Seq, f.Timestamp = u.seq, ts
	u.seq++
	u.clock += frameLen
	return out.add(u.id, u.link.Transfer(f))
}

// datagrams coalesces one block's enveloped records into datagrams of at
// most fleet.MaxDatagram bytes, reusing its buffers from block to block.
type datagrams struct {
	bufs    [][]byte
	n       int
	rec     []byte
	records int64
}

func (d *datagrams) reset() { d.n, d.records = 0, 0 }

func (d *datagrams) add(id uint32, frames []*stream.Frame) error {
	for _, f := range frames {
		rec, err := f.AppendMarshal(fleet.AppendEnvelope(d.rec[:0], id, nil))
		if err != nil {
			return err
		}
		d.rec = rec
		if d.n == 0 || len(d.bufs[d.n-1])+len(rec) > fleet.MaxDatagram {
			if d.n == len(d.bufs) {
				d.bufs = append(d.bufs, make([]byte, 0, fleet.MaxDatagram))
			}
			d.bufs[d.n] = d.bufs[d.n][:0]
			d.n++
		}
		d.bufs[d.n-1] = append(d.bufs[d.n-1], rec...)
		d.records++
	}
	return nil
}

func (d *datagrams) list() [][]byte { return d.bufs[:d.n] }

// sessionTotals accumulates the outputs and transport counters of every
// session that has finished (closed by churn, or still open at the end).
type sessionTotals struct {
	digest               hash.Hash
	noise, res           [2]float64 // [time-domain, FDAF]
	samples              int64
	expected, processed  int64 // session-blocks
	late, dropped, dup   uint64
	concealed, delivered uint64
}

// finish folds one session's outputs in. The digest covers every
// session's residual and ambient power, in the order sessions finish.
func (t *sessionTotals) finish(srv *fleet.Server, u *relayUser, ticks int64) {
	s := srv.Lookup(u.id)
	noise, res := s.Meters()
	var b [20]byte
	binary.LittleEndian.PutUint32(b[0:], u.id)
	binary.LittleEndian.PutUint64(b[4:], math.Float64bits(noise))
	binary.LittleEndian.PutUint64(b[12:], math.Float64bits(res))
	t.digest.Write(b[:])
	k := 0
	if u.fdaf {
		k = 1
	}
	t.noise[k] += noise
	t.res[k] += res
	n := s.Samples()
	t.samples += n
	t.expected += ticks - u.openTick
	t.processed += n / frameLen
	st := s.Stats()
	t.late += st.FramesLate
	t.dropped += st.FramesDropped
	t.dup += st.FramesDuplicate
	t.concealed += st.SamplesConcealed
	t.delivered += st.SamplesDelivered
}

// serveRun is one built fleet plus the users driving it.
type serveRun struct {
	spec     serveSpec
	seed     uint64
	srv      *fleet.Server
	users    []*relayUser // open sessions, ascending id
	nextID   uint32
	churnRNG *audio.RNG
	variants []fleet.Profile
	ticks    int64
	dg       datagrams

	datagramsSent, ingestErrs int64
	opens, openErrs           int64
}

// variantPool returns the serve-churn profile variants: distinct room IRs
// and secondary-path calibrations, every fourth on FDAF block 16.
func variantPool(seed uint64) []fleet.Profile {
	out := make([]fleet.Profile, variantCount)
	for v := range out {
		rng := audio.NewRNG(seed*1000003 + uint64(v))
		room := make([]float64, 24)
		room[0] = 1
		for k := 1; k < len(room); k++ {
			room[k] = 0.5 * math.Exp(-float64(k)/6) * rng.Uniform()
		}
		p := fleet.DefaultProfile()
		p.RoomIR = room
		p.EstimateSecondary = true
		p.EstimateNoiseRMS = 0.01
		p.EstimateSeed = seed*131 + uint64(v) + 1
		if v%fdafEvery == 0 {
			p.FDAFBlock = 16
		}
		out[v] = p
	}
	return out
}

// newUser creates the generator side of a new user; closeAt is the block
// at which churn retires it.
func (r *serveRun) newUser(closeAt int) (*relayUser, error) {
	id := r.nextID
	r.nextID++
	variant := -1
	if r.spec.churn {
		// Every fourth user runs an FDAF variant, so the FDAF share is
		// exactly a quarter whatever the seed.
		v := r.churnRNG.Intn(variantCount / fdafEvery)
		if id%fdafEvery == 0 {
			variant = v * fdafEvery
		} else {
			variant = v*fdafEvery + 1 + r.churnRNG.Intn(fdafEvery-1)
		}
	}
	skew := 0.0
	if id%3 == 0 {
		skew = r.spec.skewPPM
	}
	u, err := newRelayUser(r.seed, id, r.spec.faults, skew)
	if err != nil {
		return nil, err
	}
	u.variant = variant
	u.fdaf = variant >= 0 && r.variants[variant].FDAFBlock > 0
	u.closeAt = closeAt
	return u, nil
}

// open admits u's session. A refused or failed Open is counted and the
// user's frames then reach the server as traffic for an unknown session.
func (r *serveRun) open(u *relayUser, op int64, parent int32, tr *tracer) bool {
	p := fleet.DefaultProfile()
	if u.variant >= 0 {
		p = r.variants[u.variant]
	}
	u.openTick = r.ticks
	r.opens++
	t0 := time.Now()
	_, err := r.srv.Open(u.id, p)
	tr.add(op, "fleet.Open", parent, t0, time.Now())
	if err != nil {
		r.openErrs++
		logf("open %d: %v", u.id, err)
		return false
	}
	return true
}

// lifetime draws a churn lifetime in blocks, mean spec.sessions.
func (r *serveRun) lifetime() int {
	return r.spec.sessions/2 + r.churnRNG.Intn(r.spec.sessions)
}

// ingest hands the queued datagrams to the server.
func (r *serveRun) ingest(op int64, parent int32, tr *tracer) {
	for _, d := range r.dg.list() {
		t0 := time.Now()
		err := r.srv.Ingest(d)
		tr.add(op, "fleet.Ingest", parent, t0, time.Now())
		r.datagramsSent++
		if err != nil {
			r.ingestErrs++
		}
	}
}

// tick runs one ProcessTick.
func (r *serveRun) tick(op int64, parent int32, tr *tracer) time.Time {
	t0 := time.Now()
	if err := r.srv.ProcessTick(); err != nil {
		logf("tick %d: %v", r.ticks, err)
	}
	done := time.Now()
	tr.add(op, "fleet.ProcessTick", parent, t0, done)
	r.ticks++
	return done
}

// generate queues one slot from every open user.
func (r *serveRun) generate() error {
	r.dg.reset()
	for _, u := range r.users {
		if err := u.slot(&r.dg); err != nil {
			return err
		}
	}
	return nil
}

// buildFleet is one set-up: NewServer, open the fleet, prime every jitter
// buffer and run the warm-up ticks. op identifies the set-up's spans.
func buildFleet(spec serveSpec, seed uint64, op int64, tr *tracer) (*serveRun, error) {
	root := tr.open(op, "setup", -1, time.Now())
	r := &serveRun{
		spec:     spec,
		seed:     seed,
		srv:      fleet.NewServer(fleet.Config{Shards: 1}),
		nextID:   1,
		churnRNG: audio.NewRNG(seed*0x853c49e6748fea9b + 7),
	}
	if spec.churn {
		r.variants = variantPool(seed)
	}
	for i := 0; i < spec.sessions; i++ {
		closeAt := -1
		if spec.churn {
			// Stagger the first generation's retirements over one mean
			// lifetime, so churn runs at its steady rate from the start.
			closeAt = 1 + r.churnRNG.Intn(spec.sessions)
		}
		u, err := r.newUser(closeAt)
		if err != nil {
			return nil, err
		}
		if r.open(u, op, root, tr) {
			r.users = append(r.users, u)
		}
	}
	for l := 0; l < lead; l++ {
		if err := r.generate(); err != nil {
			return nil, err
		}
		r.ingest(op, root, tr)
	}
	for w := 0; w < warmupTicks; w++ {
		if err := r.generate(); err != nil {
			return nil, err
		}
		r.ingest(op, root, tr)
		r.tick(op, root, tr)
	}
	tr.close(root, time.Now())
	return r, nil
}

// teardown closes every session one by one.
func (r *serveRun) teardown(op int64, tr *tracer) {
	for _, u := range r.users {
		t0 := time.Now()
		if err := r.srv.CloseSession(u.id); err != nil {
			logf("close %d: %v", u.id, err)
		}
		tr.add(op, "fleet.CloseSession", -1, t0, time.Now())
	}
}

func runServe(spec serveSpec, seed uint64, seconds int, tr *tracer) (*outcome, error) {
	// The serving workloads run 1.5 s of audio per --seconds: on a shared
	// 2-vCPU VM, block latency drifts with the neighbours over seconds,
	// and a longer run averages more of that drift (see NOTES.md).
	blocks := 150 * seconds
	o := &outcome{}
	cacheHits0, cacheMiss0 := fleetCacheStats()

	t0 := time.Now()
	r, err := buildFleet(spec, seed, -1, tr)
	if err != nil {
		return nil, err
	}
	o.setupNS = append(o.setupNS, float64(time.Since(t0)))

	tot := sessionTotals{digest: sha256.New()}
	var lags, genNS []float64
	var frames, sessionBlocks int64
	var pressureMax fleet.PressureState
	var retiring, joining []*relayUser
	var due time.Time
	for n := 0; n < blocks; n++ {
		if k := n * setupReps / blocks; n == 0 || k != (n-1)*setupReps/blocks {
			if n > 0 {
				// A further set-up, timed and thrown away, between two
				// segments of the open loop; the loop's clock restarts
				// after it.
				t0 := time.Now()
				extra, err := buildFleet(spec, seed, int64(-1-k), tr)
				if err != nil {
					return nil, err
				}
				o.setupNS = append(o.setupNS, float64(time.Since(t0)))
				extra.teardown(int64(-1-k), tr)
			}
			due = time.Now().Add(blockPeriod)
		}
		op := int64(n)

		// Generator: build block n before it is due. Churn retires users
		// whose lifetime ends here; their links' frames still in flight
		// are delivered after the close, as a relay that has not yet
		// noticed would send them.
		g0 := time.Now()
		retiring, joining = retiring[:0], joining[:0]
		if spec.churn {
			kept := r.users[:0]
			for _, u := range r.users {
				if u.closeAt == n {
					// No tick runs before the close, so the session's
					// outputs are final now.
					tot.finish(r.srv, u, r.ticks)
					retiring = append(retiring, u)
				} else {
					kept = append(kept, u)
				}
			}
			r.users = kept
		}
		if err := r.generate(); err != nil {
			return nil, err
		}
		for _, u := range retiring {
			if err := r.dg.add(u.id, u.link.Drain()); err != nil {
				return nil, err
			}
			// The replacement sends its lead slots plus this block's.
			j, err := r.newUser(n + r.lifetime())
			if err != nil {
				return nil, err
			}
			for l := 0; l <= lead; l++ {
				if err := j.slot(&r.dg); err != nil {
					return nil, err
				}
			}
			joining = append(joining, j)
		}
		g1 := time.Now()
		tr.add(op, "gen", -1, g0, g1)
		genNS = append(genNS, float64(g1.Sub(g0)))

		waitUntil(due)
		start := time.Now()
		lags = append(lags, float64(start.Sub(due)))
		root := tr.open(op, "block", -1, due)

		// Admission and teardown beside the tick.
		for _, u := range retiring {
			c0 := time.Now()
			if err := r.srv.CloseSession(u.id); err != nil {
				logf("close %d: %v", u.id, err)
			}
			tr.add(op, "fleet.CloseSession", root, c0, time.Now())
		}
		opened := joining[:0]
		for _, u := range joining {
			if r.open(u, op, root, tr) {
				opened = append(opened, u)
			}
		}
		r.users = append(r.users, opened...)
		frames += r.dg.records
		sessionBlocks += int64(len(r.users))
		r.ingest(op, root, tr)
		done := r.tick(op, root, tr)
		tr.close(root, done)
		o.opNS = append(o.opNS, float64(done.Sub(due)))
		audio := float64(len(r.users)) * blockPeriod.Seconds()
		o.busyPerAudio = append(o.busyPerAudio, float64(done.Sub(start))/audio)
		o.streamSeconds += audio

		ob := time.Now()
		r.srv.ObserveTick(done.Sub(due.Add(blockPeriod)).Nanoseconds())
		tr.add(op, "fleet.ObserveTick", -1, ob, time.Now())
		if p := r.srv.Pressure(); p > pressureMax {
			pressureMax = p
		}
		due = due.Add(blockPeriod)
	}

	for _, u := range r.users {
		tot.finish(r.srv, u, r.ticks)
	}
	o.digest = hex.EncodeToString(tot.digest.Sum(nil))
	o.depthDB = depthDB(tot.noise[0]+tot.noise[1], tot.res[0]+tot.res[1])
	o.clockDependent = pressureMax != fleet.PressureNormal
	o.memMB = liveHeapMB()

	tickFailed := tot.expected - tot.processed
	o.attempted = tot.expected + r.opens + r.datagramsSent
	o.failed = tickFailed + r.openErrs + r.ingestErrs
	snap := r.srv.Registry().Snapshot()
	if o.clockDependent {
		logf("pressure ladder peaked at %v (deadline misses %d)", pressureMax, snap.Counters["fleet.deadline_miss"])
	}

	if tr != nil {
		hits, misses := fleetCacheStats()
		hits, misses = hits-cacheHits0, misses-cacheMiss0
		news, gets, _ := r.srv.PoolStats()
		opens := tr.durations("fleet.Open")
		l := map[string]float64{}
		o.layers = l
		spans := tr.tree()
		l["fleet.tick_ns_per_session_block"] = spans["block/fleet.ProcessTick"].total / float64(sessionBlocks)
		l["fleet.ingest_ns_per_frame"] = spans["block/fleet.Ingest"].total / float64(frames)
		l["fleet.open_ns_p50"] = quantile(opens, 0.5)
		l["fleet.open_ns_p99"] = quantile(opens, 0.99)
		l["fleet.close_ns_p50"] = median(tr.durations("fleet.CloseSession"))
		l["fleet.setup_cache_hit_ratio"] = ratio(float64(hits), float64(hits+misses))
		l["fleet.pool_news"] = float64(news)
		l["fleet.pool_reuse_ratio"] = 1 - ratio(float64(news), float64(gets))
		l["fleet.pressure_max"] = float64(pressureMax)
		for _, c := range []string{"deadline_miss", "bad_envelope", "unknown_session", "quarantined", "refused", "shed"} {
			l["fleet."+c] = float64(snap.Counters["fleet."+c])
		}
		l["stream.frames_late"] = float64(tot.late)
		l["stream.frames_dropped"] = float64(tot.dropped)
		l["stream.frames_duplicate"] = float64(tot.dup)
		l["stream.concealed_ratio"] = ratio(float64(tot.concealed), float64(tot.concealed+tot.delivered))
		l["gen.ns_per_block"] = median(genNS)
		l["gen.lag_p99_ms"] = quantile(lags, 0.99) / 1e6
		l["graph.samples"] = float64(tot.samples)
		l["core.cancel_depth_db.td"] = depthDB(tot.noise[0], tot.res[0])
		l["core.cancel_depth_db.fdaf"] = depthDB(tot.noise[1], tot.res[1])
	}
	r.teardown(int64(blocks), tr)
	o.trace = tr
	return o, nil
}

// fleetCacheStats reads the process-wide setup memo's counters, which
// every server shares.
func fleetCacheStats() (hits, misses uint64) {
	return fleet.NewServer(fleet.Config{Shards: 1}).CacheStats()
}

// waitUntil spins until t. A sleep can overshoot by a millisecond, which
// would be charged to the block as lag, and an idle vCPU lets the host
// run other guests on the core, so how cold the caches are when the block
// starts would depend on the neighbours.
func waitUntil(t time.Time) {
	for time.Now().Before(t) {
	}
}
