package main

// The fit workloads: Phase 2, MCMC synthesis over incremental dataflow.
//
// The protected graph is measured once with synth.Measure and seeded once
// with synth.SeedGraph, outside the timed region. A run then repeats a
// fixed-length walk through synth.Synthesize, each repetition on a fresh
// copy of the release with its own walk seed, and reports medians over
// the repetitions; per-proposal latency comes from consecutive
// Config.OnStep calls on chain 0. The traced pass rebuilds the same
// chains from the public workload and mcmc API, with the plan input
// wrapped so every push, commit and abort becomes a span, and must end
// on the untraced walk's final scores exactly.

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"wpinq/internal/graph"
	"wpinq/internal/incremental"
	"wpinq/internal/mcmc"
	"wpinq/internal/obs"
	"wpinq/internal/synth"
	"wpinq/internal/weighted"
	"wpinq/internal/workload"
)

// fitSpec is one fit workload's executor, chain layout and walk length.
type fitSpec struct {
	shards    int       // synth.Config.Shards: -1 serial reference engine, >0 sharded
	ladder    []float64 // one pow per chain, coldest first
	swapEvery int       // steps between replica swap rounds (several chains only)
	repSteps  int       // steps per chain in one repetition
}

// fitSerial is one chain on the serial reference executor at the paper's
// pow: nearly every proposal is rejected, so the walk is the depth-first
// cascade plus its abort path in internal/incremental.
var fitSerial = fitSpec{shards: -1, ladder: []float64{10000}, repSteps: 512}

// fitReplicas is replica exchange over two chains, each on its own
// one-shard engine. At pow 10000 beside 0.1 no swap is ever accepted;
// rungs at 0.5 and 0.25 swap in about a quarter of the rounds while the
// walk still splits roughly evenly between commits and aborts.
var fitReplicas = fitSpec{shards: 1, ladder: []float64{0.5, 0.25}, swapEvery: 256, repSteps: 1024}

const (
	fitNodes       = 300
	shortFitNodes  = 150
	shortRepSteps  = 32
	fitEps         = 0.5
	fitBucket      = 5
	recomputeEvery = 1 << 15 // synth.Config's default RecomputeEvery
	minReps        = 3       // timed repetitions, however long they take

	// graphSeed fixes each workload's protected graph. Preferential
	// attachment grows hubs of very different degree from seed to seed,
	// and the hubs set the cost of a proposal: across graph seeds the
	// fit's throughput moved by a factor of two. The fits fix Phase 0 and
	// 1 too, since the seed graph Phase 1 draws from the noisy release
	// moved it by another 15%; their run seed drives the walk.
	graphSeed = 1
)

// fitWorkloads are fused into one plan; synth sorts them the same way.
var fitWorkloads = []string{"jdd", "tbd", "tbi", "wedges"}

// fitInput is everything the fits consume: the released measurements and
// the Phase 1 seed graph.
type fitInput struct {
	spec     fitSpec
	cfg      synth.Config
	m        *synth.Measurements
	released []byte // m as saved right after Phase 0
	loadSeed int64
	seedG    *graph.Graph
}

// fresh returns a new copy of the released measurements. Every fit needs
// its own: a walk memoizes noise for the records it explores, and a sink
// attached to a measurement that has grown that way scores a wider
// domain than one attached to the pristine release.
func (in *fitInput) fresh() (*synth.Measurements, error) {
	return synth.LoadMeasurements(bytes.NewReader(in.released), rand.New(rand.NewSource(in.loadSeed)))
}

// measureSeed derives the Phase 0+1 rng seed from the run seed, and
// walkSeed the Phase 2 seed of the run's k-th repetition.
func measureSeed(seed int64) int64 { return seed*1_000_003 + 1 }
func walkSeed(seed int64, k int) int64 {
	return seed*1_000_003 + 2 + int64(k)*7919
}

func (spec fitSpec) config(short bool) synth.Config {
	cfg := synth.Config{
		Eps:       fitEps,
		Workloads: fitWorkloads,
		Bucket:    fitBucket,
		Pow:       spec.ladder[0],
		Shards:    spec.shards,
		Chains:    len(spec.ladder),
		SwapEvery: spec.swapEvery,
		Steps:     spec.repSteps,
	}
	if short {
		cfg.SwapEvery, cfg.Steps = shortRepSteps/2, shortRepSteps
	}
	if len(spec.ladder) > 1 {
		cfg.PowLadder = spec.ladder
	}
	return cfg
}

func runFit(p params, spec fitSpec, r *report) error {
	in, err := prepareFit(p, spec, r)
	if err != nil {
		return err
	}
	if p.trace {
		return traceFit(p, in, r)
	}
	chains := len(spec.ladder)

	// Repetition 0 warms up and counts: the live heap once set up, and
	// the allocations of its walk net of a zero-step fit's set-up.
	zero, err := fitRep(in, walkSeed(p.seed, 0), 0, false)
	if err != nil {
		return err
	}
	warm, err := fitRep(in, walkSeed(p.seed, 0), in.cfg.Steps, true)
	if err != nil {
		return err
	}
	checkDegrees(in.seedG, warm.res.Synthetic, r)
	r.set("heap_mb", warm.heapMB)
	r.set("allocs_per_op", float64(warm.allocs-zero.allocs)/float64(in.cfg.Steps*chains))

	var setups, p50s, rates []float64
	start := time.Now()
	for k := 1; len(rates) < minReps || !p.short && time.Since(start).Seconds() < p.seconds; k++ {
		rp, err := fitRep(in, walkSeed(p.seed, k), in.cfg.Steps, false)
		if err != nil {
			return err
		}
		r.ops(in.cfg.Steps*chains, 0)
		checkDegrees(in.seedG, rp.res.Synthetic, r)
		setups = append(setups, rp.setup.Seconds())
		p50s = append(p50s, median(rp.lat))
		rates = append(rates, float64(len(rp.lat)*chains)/rp.walk.Seconds())
		if p.short {
			break
		}
	}
	r.set("setup_s", median(setups))
	r.set("op_p50_ms", median(p50s))
	r.set("ops_per_s", median(rates))
	r.note("repetitions=%d of %d steps x %d chains; proposals/s per repetition %.1f", len(rates), in.cfg.Steps, chains, rates)
	return nil
}

// prepareFit builds the protected graph, measures it and seeds the
// synthetic graph: the fits' inputs, outside the timed region.
func prepareFit(p params, spec fitSpec, r *report) (*fitInput, error) {
	n := fitNodes
	if p.short {
		n = shortFitNodes
	}
	g, err := graph.HolmeKim(n, 3, 0.5, rand.New(rand.NewSource(graphSeed)))
	if err != nil {
		return nil, err
	}
	in := &fitInput{spec: spec, cfg: spec.config(p.short)}
	rng := rand.New(rand.NewSource(measureSeed(graphSeed)))
	t := time.Now()
	if in.m, err = synth.Measure(g, in.cfg, rng); err != nil {
		return nil, err
	}
	r.set("synth.measure_s", sinceS(t))
	checkCost(in.m, in.cfg, r)
	var buf bytes.Buffer
	if err := in.m.Save(&buf); err != nil {
		return nil, err
	}
	in.released, in.loadSeed = buf.Bytes(), measureSeed(graphSeed)+1
	if p.trace {
		// Phase 0 again through the traced replica, which must release
		// the same bytes; it gives the core layer's per-workload times.
		tr := newTracer(time.Now(), 16)
		const trace = 1 << 50 // apart from the chains' proposal traces
		got, err := traceMeasure(g, in.cfg, rand.New(rand.NewSource(measureSeed(graphSeed))), tr, trace, trace, 0, r)
		if err != nil {
			return nil, err
		}
		checkSameRelease(in.m, got, r)
		r.spans = append(r.spans, tr.spans...)
	}
	t = time.Now()
	if in.seedG, err = synth.SeedGraph(in.m, rng); err != nil {
		return nil, err
	}
	r.set("synth.seed_s", sinceS(t))
	return in, nil
}

// rep is one timed synth.Synthesize call.
type rep struct {
	setup  time.Duration // from the call to the end of set-up
	walk   time.Duration // from chain 0's first step to its last
	lat    []float64     // chain-0 step latencies after the first, ms
	res    *synth.Result
	heapMB float64 // live heap at the end of set-up (counting runs only)
	allocs uint64  // heap allocations of the whole call (counting runs only)
}

// fitRep runs Phase 2 for steps steps per chain on a fresh copy of the
// release. A counting run also collects garbage at the end of set-up, to
// read the live heap, and counts the call's allocations; its timings are
// not used.
func fitRep(in *fitInput, seed int64, steps int, counting bool) (*rep, error) {
	m, err := in.fresh()
	if err != nil {
		return nil, err
	}
	cfg := in.cfg
	cfg.Steps = steps
	rp := &rep{lat: make([]float64, 0, steps)}
	ctr := newCounters()
	var start, first, prev time.Time
	setUp := func() {
		rp.setup = time.Since(start)
		if counting {
			rp.heapMB = liveHeapMB()
		}
	}
	single := len(in.spec.ladder) == 1
	if single {
		// Synthesize samples chain 0's graph once it is loaded and before
		// its first step; with several chains that happens before the
		// later chains are built, so those runs end set-up at the first
		// step instead.
		cfg.SampleEvery = math.MaxInt
		cfg.OnSample = func(int, *graph.Graph) { setUp() }
	}
	cfg.OnStep = func(step int, _ bool, _ float64) {
		if step == 0 && !single {
			setUp()
		}
		now := time.Now()
		if step == 0 {
			first = now
		} else {
			rp.lat = append(rp.lat, float64(now.Sub(prev))/1e6)
		}
		prev = now
	}
	runtime.GC()
	a0, _ := ctr.read()
	start = time.Now()
	if rp.res, err = synth.Synthesize(m, in.seedG, cfg, rand.New(rand.NewSource(seed))); err != nil {
		return nil, err
	}
	a1, _ := ctr.read()
	rp.walk = prev.Sub(first)
	if counting || steps == 0 {
		rp.allocs = a1 - a0
	}
	return rp, nil
}

// checkCost verifies the privacy cost Measure charged.
func checkCost(m *synth.Measurements, cfg synth.Config, r *report) {
	r.check(relClose(m.TotalCost, cfg.MeasureCost(), 1e-9),
		"Measurements.TotalCost %v != Config.MeasureCost() %v", m.TotalCost, cfg.MeasureCost())
}

// checkDegrees verifies a synthetic graph kept the seed's degree
// sequence: degree-preserving swaps must not change any node's degree.
func checkDegrees(seed, g *graph.Graph, r *report) {
	ok := g.NumNodes() == seed.NumNodes() && g.NumEdges() == seed.NumEdges()
	for _, v := range seed.Nodes() {
		if !ok {
			break
		}
		ok = g.Degree(v) == seed.Degree(v)
	}
	r.check(ok, "synthetic graph lost the seed's degree sequence")
}

// chain is one MCMC chain built the way synth.Synthesize builds it, with
// the time its construction spent reseeding and attaching.
type chain struct {
	plan           *workload.Plan
	rng            *rand.Rand
	pow            float64
	reseed, attach time.Duration
}

// buildChains builds the first n chains' plans exactly as synth does:
// a single chain walks the master rng against the released measurements;
// replica chains each draw their own rng from the master and fit a
// reseeded copy of every measurement. The plans are returned unloaded,
// with the master rng, whose next draw seeds replica exchange's swaps.
func buildChains(in *fitInput, seed int64, n int) ([]*chain, *rand.Rand, error) {
	m, err := in.fresh()
	if err != nil {
		return nil, nil, err
	}
	master := rand.New(rand.NewSource(seed))
	multi := len(in.spec.ladder) > 1
	out := make([]*chain, n)
	for i := range out {
		c := &chain{rng: master, pow: in.spec.ladder[i]}
		if multi {
			c.rng = rand.New(rand.NewSource(master.Int63()))
		}
		c.plan = workload.NewPlanFused(in.cfg.Shards, true)
		for _, name := range fitWorkloads {
			fit := m.Fits[name]
			if multi {
				t := time.Now()
				var err error
				if fit, err = fit.Reseed(m.Eps, c.rng); err != nil {
					return nil, nil, err
				}
				c.reseed += time.Since(t)
			}
			t := time.Now()
			if err := fit.Attach(c.plan, m.Eps); err != nil {
				return nil, nil, err
			}
			c.attach += time.Since(t)
		}
		out[i] = c
	}
	return out, master, nil
}

// chainTrace records one chain's spans. Every proposal is a trace: a
// root mcmc.step span from the previous step's end to this step's
// OnStep, with the plan input's push, commit and abort spans as its
// children.
type chainTrace struct {
	tr        *tracer
	chain     uint64
	step      uint64
	prev      int64
	chunk     int
	roundEnds []int64 // time each swap round's last step ended, if chunk > 0
	first     int64
	last      int64
}

func (c *chainTrace) trace() uint64 { return c.chain<<40 | (c.step + 1) }

func (c *chainTrace) onStep(step int, _ bool, _ float64) {
	now := c.tr.now()
	t := c.trace()
	c.tr.add("mcmc.step", t, t<<3, 0, c.prev, now)
	if c.first == 0 {
		c.first = now
	}
	c.last = now
	c.prev = now
	c.step++
	if c.chunk > 0 && (step+1)%c.chunk == 0 {
		c.roundEnds = append(c.roundEnds, now)
	}
}

// tracedInput wraps a plan's transactional input; mcmc.GraphState sees
// the same TxnInput it would see unwrapped, so the walk is unchanged.
type tracedInput struct {
	in      mcmc.TxnInput
	c       *chainTrace
	loading bool
}

func (t *tracedInput) Push(batch []incremental.Delta[graph.Edge]) {
	s := t.c.tr.now()
	t.in.Push(batch)
	e := t.c.tr.now()
	if t.loading {
		t.c.tr.add("workload.load", t.c.chain<<40, t.c.chain<<43|4, 0, s, e)
		return
	}
	tid := t.c.trace()
	t.c.tr.add("workload.push", tid, tid<<3|1, tid<<3, s, e)
}

func (t *tracedInput) PushDataset(d *weighted.Dataset[graph.Edge]) { t.in.PushDataset(d) }

func (t *tracedInput) Begin() { t.in.Begin() }

func (t *tracedInput) Commit() {
	s := t.c.tr.now()
	t.in.Commit()
	tid := t.c.trace()
	t.c.tr.add("workload.commit", tid, tid<<3|2, tid<<3, s, t.c.tr.now())
}

func (t *tracedInput) Abort() {
	s := t.c.tr.now()
	t.in.Abort()
	tid := t.c.trace()
	t.c.tr.add("workload.abort", tid, tid<<3|3, tid<<3, s, t.c.tr.now())
}

// traceFit runs the traced pass: a warm-up repetition, one untraced
// synth.Synthesize repetition, then the traced chains over the same walk,
// which must end on the same scores.
func traceFit(p params, in *fitInput, r *report) error {
	if _, err := fitRep(in, walkSeed(p.seed, 0), in.cfg.Steps, false); err != nil { // warm-up
		return err
	}
	untraced, err := fitRep(in, walkSeed(p.seed, 0), in.cfg.Steps, false)
	if err != nil {
		return err
	}
	res := untraced.res
	r.setTail(untraced.lat)
	checkDegrees(in.seedG, res.Synthetic, r)
	steps := in.cfg.Steps
	untracedScores := []float64{res.Stats.FinalScore}
	if len(res.Chains) > 0 {
		untracedScores = untracedScores[:0]
		for _, c := range res.Chains {
			untracedScores = append(untracedScores, c.FinalScore)
		}
	}

	spec := in.spec
	nChains := len(spec.ladder)
	chunk := 0
	if nChains > 1 {
		chunk = in.cfg.SwapEvery
	}
	runtime.GC()
	heap0 := liveHeapMB()
	t := time.Now()
	if _, err := in.fresh(); err != nil {
		return err
	}
	r.set("synth.load_measurements_ms", float64(time.Since(t))/1e6)
	epoch := time.Now()
	chains, master, err := buildChains(in, walkSeed(p.seed, 0), nChains)
	if err != nil {
		return err
	}
	var reseed, attach, load time.Duration
	traces := make([]*chainTrace, nChains)
	runners := make([]*mcmc.Runner, nChains)
	for i, c := range chains {
		txn, ok := c.plan.Input().(mcmc.TxnInput)
		if !ok {
			return fmt.Errorf("plan input is not transactional")
		}
		ct := &chainTrace{tr: newTracer(epoch, 4*steps+16), chain: uint64(i), chunk: chunk}
		traces[i] = ct
		ti := &tracedInput{in: txn, c: ct, loading: true}
		t = time.Now()
		state := mcmc.NewGraphState(in.seedG, ti)
		load += time.Since(t)
		ti.loading = false
		if runners[i], err = mcmc.NewRunner(state, c.plan.Scorer(), mcmc.Config{Pow: c.pow, RecomputeEvery: recomputeEvery, OnStep: ct.onStep}, c.rng); err != nil {
			return err
		}
		reseed += c.reseed
		attach += c.attach
	}
	r.set("synth.reseed_s", reseed.Seconds())
	r.set("workload.attach_s", attach.Seconds())
	r.set("workload.load_s", load.Seconds())
	r.set("workload.state_mb", liveHeapMB()-heap0)

	var pushes0 uint64
	for _, c := range chains {
		pushes0 += c.plan.Fusion().Pushes()
	}
	hit0, miss0 := poolEvents()
	for _, ct := range traces {
		ct.prev = ct.tr.now()
	}
	stats := make([]mcmc.ChainStats, nChains)
	if nChains == 1 {
		stats[0].Stats = runners[0].Run(steps)
	} else {
		swapRng := rand.New(rand.NewSource(master.Int63()))
		rep, err := mcmc.RunReplicas(runners, mcmc.ReplicaConfig{Steps: steps, SwapEvery: chunk}, swapRng)
		if err != nil {
			return err
		}
		stats = rep.Chains
	}
	tracedTotal := time.Duration(traces[0].last - traces[0].first)
	r.set("trace.overhead_ratio", tracedTotal.Seconds()/untraced.walk.Seconds())

	var pushes uint64
	for _, c := range chains {
		pushes += c.plan.Fusion().Pushes()
	}
	hit1, miss1 := poolEvents()
	proposals := steps * nChains
	r.ops(proposals, 0)
	r.set("plan.fragpushes_per_proposal", float64(pushes-pushes0)/float64(proposals))
	if h, m := hit1-hit0, miss1-miss0; h+m > 0 {
		r.set("incremental.pool_miss_ratio", m/(h+m))
	}

	var accepted, invalid, swapsProposed, swapsAccepted int
	for i, s := range stats {
		accepted += s.Accepted
		invalid += s.Invalid
		swapsProposed += s.SwapsProposed
		swapsAccepted += s.SwapsAccepted
		r.check(runners[i].Score() == untracedScores[i],
			"chain %d: traced final score %v != untraced %v", i, runners[i].Score(), untracedScores[i])
		checkDegrees(in.seedG, runners[i].State().Graph(), r)
	}
	r.set("mcmc.accept_ratio", float64(accepted)/float64(proposals))
	r.set("mcmc.invalid_ratio", float64(invalid)/float64(proposals))
	if swapsProposed > 0 {
		r.set("mcmc.swap_accept_ratio", float64(swapsAccepted)/float64(swapsProposed))
	}
	if nChains > 1 {
		r.set("mcmc.round_wait_ms", roundWaitMS(traces))
	}
	// The runner keeps the last accepted score; the scorer's maintained
	// score also carries the noise terms of records that rejected
	// proposals first observed, and is what a recompute must reproduce.
	for i, run := range runners {
		maintained := run.Scorer().Score()
		t = time.Now()
		rec := run.Scorer().Recompute()
		if i == 0 {
			r.set("mcmc.recompute_ms", float64(time.Since(t))/1e6)
		}
		r.check(relClose(rec, maintained, 1e-9), "chain %d: maintained score %v != Scorer.Recompute() %v", i, maintained, rec)
	}

	for _, ct := range traces {
		r.spans = append(r.spans, ct.tr.spans...)
	}
	r.set("mcmc.propose_us", median(selfByName(r.spans, "mcmc.step")))
	r.set("mcmc.commit_us", median(durByName(r.spans, "workload.commit")))
	r.set("mcmc.abort_us", median(durByName(r.spans, "workload.abort")))
	push := durByName(r.spans, "workload.push")
	r.set("workload.push_us", median(push))
	r.set("workload.push_p99_us", quantile(push, 0.99))
	r.note("traced %d steps x %d chains; accepted %d, swaps %d/%d", steps, nChains, accepted, swapsAccepted, swapsProposed)
	return nil
}

// roundWaitMS is the median over swap rounds of how long the faster
// chain waited at the barrier for the slower one.
func roundWaitMS(traces []*chainTrace) float64 {
	rounds := len(traces[0].roundEnds)
	for _, ct := range traces {
		rounds = min(rounds, len(ct.roundEnds))
	}
	waits := make([]float64, rounds)
	for k := range waits {
		lo, hi := traces[0].roundEnds[k], traces[0].roundEnds[k]
		for _, ct := range traces {
			lo, hi = min(lo, ct.roundEnds[k]), max(hi, ct.roundEnds[k])
		}
		waits[k] = float64(hi-lo) / 1e6
	}
	return median(waits)
}

// poolEvents reads the state-buffer pool's hit and miss counters.
func poolEvents() (hit, miss float64) {
	for _, f := range obs.Default.Snapshot() {
		if f.Name != "wpinq_pool_events_total" {
			continue
		}
		for _, s := range f.Series {
			switch s.Labels["outcome"] {
			case "hit":
				hit = s.Value
			case "miss":
				miss = s.Value
			}
		}
	}
	return hit, miss
}
