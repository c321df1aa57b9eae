package main

// The release workload: the curator's Phase 0 and Phase 1, repeated.
// Every other workload does little one-shot work, so this is where
// internal/core, internal/weighted, internal/queries and
// internal/postprocess carry the load.

import (
	"bytes"
	"math/rand"
	"sort"
	"time"

	"wpinq/internal/budget"
	"wpinq/internal/core"
	"wpinq/internal/graph"
	"wpinq/internal/queries"
	"wpinq/internal/synth"
	"wpinq/internal/workload"
)

const (
	releaseNodes      = 300
	shortReleaseNodes = 60
	// A set-up takes about 1 ms. The median of a thousand consecutive
	// ones moved by a third from one run to the next, as the machine sped
	// up and slowed down, so a run sets up a batch before every release
	// and takes the median over the whole run.
	releaseSetupBatch = 151
)

func runRelease(p params, r *report) error {
	n := releaseNodes
	if p.short {
		n = shortReleaseNodes
	}
	g, err := graph.HolmeKim(n, 3, 0.5, rand.New(rand.NewSource(graphSeed)))
	if err != nil {
		return err
	}
	cfg := synth.Config{Eps: fitEps, Workloads: workload.Names(), Bucket: fitBucket}
	var edgeList bytes.Buffer
	if err := graph.WriteEdgeList(&edgeList, g); err != nil {
		return err
	}

	// Set-up: the curator loads the protected edge list and introduces
	// it as a budgeted protected collection.
	var setups []float64
	setUp := func() error {
		for range releaseSetupBatch {
			t := time.Now()
			loaded, err := graph.ReadEdgeList(bytes.NewReader(edgeList.Bytes()))
			if err != nil {
				return err
			}
			core.FromDataset(graph.SymmetricEdges(loaded), budget.NewSource("edges", cfg.MeasureCost()))
			setups = append(setups, sinceS(t))
		}
		return nil
	}
	if err := setUp(); err != nil {
		return err
	}
	r.set("heap_mb", liveHeapMB())

	if p.trace {
		return traceRelease(p, g, cfg, r)
	}
	ctr := newCounters()
	var lat []float64
	var allocs uint64
	deadline := time.Now().Add(time.Duration(p.seconds * float64(time.Second)))
	for i := 0; len(lat) == 0 || !p.short && time.Now().Before(deadline); i++ {
		if i > 0 {
			if err := setUp(); err != nil {
				return err
			}
		}
		a0, _ := ctr.read()
		t := time.Now()
		m, seedG, err := release(g, cfg, releaseSeed(p.seed, i))
		if err != nil {
			return err
		}
		lat = append(lat, float64(time.Since(t))/1e6)
		a1, _ := ctr.read()
		allocs += a1 - a0
		r.ops(1, 0)
		checkRelease(m, seedG, cfg, r)
	}
	busy := 0.0
	for _, ms := range lat {
		busy += ms / 1e3
	}
	r.set("setup_s", median(setups))
	r.set("op_p50_ms", median(lat))
	r.set("ops_per_s", float64(len(lat))/busy)
	r.set("allocs_per_op", float64(allocs)/float64(len(lat)))
	r.note("releases=%d, %.2fs of release work; set-ups=%d", len(lat), busy, len(setups))
	return nil
}

// releaseSeed is the rng seed of the i-th release of a run.
func releaseSeed(seed int64, i int) int64 { return measureSeed(seed) + int64(i)*7919 }

// release is one Phase 0+1 round: measure everything, then seed.
func release(g *graph.Graph, cfg synth.Config, seed int64) (*synth.Measurements, *graph.Graph, error) {
	rng := rand.New(rand.NewSource(seed))
	m, err := synth.Measure(g, cfg, rng)
	if err != nil {
		return nil, nil, err
	}
	seedG, err := synth.SeedGraph(m, rng)
	return m, seedG, err
}

// checkRelease verifies a release: the charged cost matches the plan,
// and the seed graph covers the released node count.
func checkRelease(m *synth.Measurements, seedG *graph.Graph, cfg synth.Config, r *report) {
	checkCost(m, cfg, r)
	r.check(seedG.NumNodes() >= m.EstimatedNodes(),
		"seed graph has %d nodes, release estimates %d", seedG.NumNodes(), m.EstimatedNodes())
}

// traceRelease times one untraced release, then the same release through
// the traced Phase 0 replica, which must release identical bytes.
func traceRelease(p params, g *graph.Graph, cfg synth.Config, r *report) error {
	ctr := newCounters()
	_, b0 := ctr.read()
	t := time.Now()
	want, seedG, err := release(g, cfg, releaseSeed(p.seed, 0))
	if err != nil {
		return err
	}
	untraced := time.Since(t)
	_, b1 := ctr.read()
	r.set("core.alloc_mb", float64(b1-b0)/(1<<20))
	r.setTail([]float64{float64(untraced) / 1e6})
	r.ops(1, 0)
	checkRelease(want, seedG, cfg, r)

	tr := newTracer(time.Now(), 64)
	const trace, root, measureID, seedID = 1, 2, 3, 4
	start := tr.now()
	rng := rand.New(rand.NewSource(releaseSeed(p.seed, 0)))
	m, err := traceMeasure(g, cfg, rng, tr, trace, measureID, root, r)
	if err != nil {
		return err
	}
	s := tr.now()
	seedG, err = synth.SeedGraph(m, rng)
	if err != nil {
		return err
	}
	end := tr.now()
	tr.add("synth.seed", trace, seedID, root, s, end)
	tr.add("release", trace, root, 0, start, end)
	r.set("synth.seed_s", float64(end-s)/1e9)
	r.set("trace.overhead_ratio", float64(end-start)/float64(untraced))
	r.ops(1, 0)
	checkRelease(m, seedG, cfg, r)
	checkSameRelease(want, m, r)
	r.spans = append(r.spans, tr.spans...)
	return nil
}

// checkSameRelease verifies that two measurements serialize identically.
func checkSameRelease(want, got *synth.Measurements, r *report) {
	var a, b bytes.Buffer
	errA, errB := want.Save(&a), got.Save(&b)
	r.check(errA == nil && errB == nil && bytes.Equal(a.Bytes(), b.Bytes()),
		"traced Phase 0 released different bytes than synth.Measure")
}

// traceMeasure is synth.Measure with a span around each call into the
// core layer: the seed statistics and each fit workload's measurement,
// in synth's order. The spans hang under a synth.measure span with the
// given id and parent, and each duration becomes a core.measure.* metric.
func traceMeasure(g *graph.Graph, cfg synth.Config, rng *rand.Rand, tr *tracer, trace, id, parent uint64, r *report) (*synth.Measurements, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	ws, err := workload.Resolve(cfg.Workloads)
	if err != nil {
		return nil, err
	}
	sort.Slice(ws, func(i, j int) bool { return ws[i].Name < ws[j].Name })
	start := tr.now()
	src := budget.NewSource("edges", cfg.MeasureCost()*(1+1e-9))
	edges := core.FromDataset(graph.SymmetricEdges(g), src)
	m := &synth.Measurements{Eps: cfg.Eps, Fits: make(map[string]workload.Measured, len(ws))}

	s := tr.now()
	if m.DegSeq, err = core.NoisyCount(queries.DegreeSequence(edges), cfg.Eps, rng); err != nil {
		return nil, err
	}
	if m.CCDF, err = core.NoisyCount(queries.DegreeCCDF(edges), cfg.Eps, rng); err != nil {
		return nil, err
	}
	if m.NodeCount, err = core.NoisyCount(queries.NodeCount(edges), cfg.Eps, rng); err != nil {
		return nil, err
	}
	e := tr.now()
	tr.add("core.measure.seedstats", trace, id<<4|1, id, s, e)
	r.set("core.measure.seedstats_s", float64(e-s)/1e9)
	for i, w := range ws {
		s := tr.now()
		fit, err := w.Measure(edges, cfg.Bucket, cfg.Eps, rng)
		if err != nil {
			return nil, err
		}
		e := tr.now()
		m.Fits[w.Name] = fit
		tr.add("core.measure."+w.Name, trace, id<<4|uint64(i+2), id, s, e)
		r.set("core.measure."+w.Name+"_s", float64(e-s)/1e9)
	}
	m.TotalCost = src.Spent()
	end := tr.now()
	tr.add("synth.measure", trace, id, parent, start, end)
	r.set("synth.measure_s", float64(end-start)/1e9)
	return m, nil
}
