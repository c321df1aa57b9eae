// Package workload is the registry that makes wPINQ's declarative pitch
// real for this repository: each analysis (a "workload") is defined
// exactly once — a name, a privacy use count, and builders for the two
// forms of its query plan — and every layer above (measurement,
// serialization, MCMC fitting, the curator service, the CLIs) resolves
// workloads by name instead of hard-coding a query trio.
//
// A workload's plan exists in two equivalent forms, mirroring the rest
// of the repository:
//
//   - a one-shot form over core.Collection, used to take the actual
//     differentially private measurement of a protected graph; and
//   - an incremental pipeline over the round-scheduled dataflow executor
//     (wpinq/internal/engine), used by MCMC to re-score a synthetic graph
//     after each edge swap.
//
// The result histogram is type-erased behind the Histogram interface
// (typed get, distance, canonical serialization), so workloads with
// heterogeneous record types (Unit counts, degree triples, motif degree
// profiles, ...) compose in one measurement set and one fit plan.
package workload

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"

	"wpinq/internal/core"
	"wpinq/internal/engine"
	"wpinq/internal/graph"
	"wpinq/internal/incremental"
	"wpinq/internal/plan"
	"wpinq/internal/weighted"
)

// Input is the dataflow entry point a fit plan exposes: it accepts the
// edge differences of a proposed swap. It is structurally identical to
// mcmc.Input, so a Plan's input plugs straight into mcmc.NewGraphState.
// The plan input also implements mcmc.TxnInput (Begin/Commit/Abort), so
// the sampler scores proposals transactionally — one propagation per
// proposal, rejected or not — on every plan this package builds.
type Input interface {
	Push(batch []incremental.Delta[graph.Edge])
	PushDataset(d *weighted.Dataset[graph.Edge])
}

// Entry is one record of a released histogram in canonical form: the
// record serialized as JSON plus its noisy count. Entry lists returned
// by Histogram.Entries are sorted bytewise by key, so identical
// histograms serialize to identical bytes (the measurement store
// content-addresses releases by those bytes).
type Entry struct {
	Key   json.RawMessage `json:"k"`
	Count float64         `json:"c"`
}

// Histogram is the type-erased view of one workload's released
// histogram (a core.Histogram[T] for the workload's record type T).
type Histogram interface {
	// Len returns the number of materialized records.
	Len() int
	// Get returns the released noisy count for the record encoded by
	// key (the same JSON form Entries uses). Unseen records draw fresh
	// memoized noise, exactly like core.Histogram.Get.
	Get(key json.RawMessage) (float64, error)
	// Distance returns the L1 distance between this histogram's
	// materialized records and other's, over the union of their keys.
	// It inspects only materialized records (no fresh noise draws).
	Distance(other Histogram) (float64, error)
	// Entries returns the materialized (key, count) pairs sorted
	// bytewise by key: the canonical serialization.
	Entries() ([]Entry, error)
}

// Measured couples a workload's released histogram with the parameters
// it was taken under. The bucket travels with the measurement because
// the fit pipeline must bucket identically to the released records or
// MCMC would fit fresh noise (see synth's Figure 3 discussion).
type Measured struct {
	Workload Workload
	Bucket   int
	Hist     Histogram
}

// Entries returns the canonical serialized records of the measurement.
func (m Measured) Entries() ([]Entry, error) { return m.Hist.Entries() }

// Attach builds the workload's fit pipeline on the plan's executor,
// terminates it in a NoisyCountSink against the released histogram, and
// registers the sink with the plan's scorer. eps is the privacy
// parameter the measurement was taken with.
func (m Measured) Attach(p *Plan, eps float64) error {
	return m.Workload.impl.attach(p, m.Workload.Name, m.Hist, m.Bucket, eps)
}

// AttachWithDomain is Attach with an explicit sink domain: keys lists
// the records the sink should materialize up front, in order, as
// canonical JSON (the form ObservedKeys/Observations produce). The
// ordinary Attach derives its domain from the histogram's materialized
// records in sorted-key order; a resumed or re-anchored fit instead
// replays a previous sink's exact first-observation order, because the
// sink's L1 accumulator is order-sensitive and must match bit-for-bit.
func (m Measured) AttachWithDomain(p *Plan, eps float64, keys []json.RawMessage) error {
	return m.Workload.impl.attachDomain(p, m.Workload.Name, m.Hist, m.Bucket, eps, keys)
}

// Reseed returns a copy of the measurement whose histogram draws lazy
// noise for never-materialized records from rng instead of sharing (and
// consuming) the original's noise stream. Materialized released records
// are copied exactly. Replica-exchange synthesis gives each concurrent
// chain its own reseeded copy, so chains neither race on the shared
// noise memoization nor perturb one another's draws.
func (m Measured) Reseed(eps float64, rng *rand.Rand) (Measured, error) {
	entries, err := m.Hist.Entries()
	if err != nil {
		return Measured{}, fmt.Errorf("workload %s: %w", m.Workload.Name, err)
	}
	return m.Workload.Load(entries, m.Bucket, eps, rng)
}

// Collected is a type-erased collector over one workload's pipeline,
// used by equivalence tests and diagnostics.
type Collected interface {
	// Snapshot returns the current materialized output as canonical
	// key -> weight.
	Snapshot() (map[string]float64, error)
}

// Workload is one registered analysis. The zero value is invalid; build
// workloads with Define and register them with Register/MustRegister.
type Workload struct {
	// Name is the registry key: lowercase letters, digits, and dashes.
	Name string
	// Description is a one-line summary for listings.
	Description string
	// Uses is the privacy multiplier: the number of times the plan uses
	// the protected edge dataset, so a measurement costs Uses*eps.
	Uses int
	// Bucketed reports whether the degree bucket width parameter
	// changes the query (e.g. TbD's floor(d/bucket) grouping).
	Bucketed bool

	impl impl
}

// impl is the type-erased implementation of a workload's two plan
// forms, provided by Define.
type impl interface {
	measure(edges *core.Collection[graph.Edge], bucket int, eps float64, rng *rand.Rand) (Histogram, error)
	load(entries []Entry, eps float64, rng *rand.Rand) (Histogram, error)
	attach(p *Plan, name string, h Histogram, bucket int, eps float64) error
	attachDomain(p *Plan, name string, h Histogram, bucket int, eps float64, keys []json.RawMessage) error
	collect(p *Plan, bucket int) Collected
	exact(g *graph.Graph, bucket int) (map[string]float64, error)
}

// normBucket canonicalizes the bucket parameter: workloads that ignore
// it record 0, so measurements serialize identically whatever the
// caller passed.
func (w Workload) normBucket(bucket int) int {
	if !w.Bucketed || bucket <= 1 {
		return 0
	}
	return bucket
}

// Measure takes the workload's differentially private measurement of
// the protected edge collection, charging Uses*eps of the collection's
// budget.
func (w Workload) Measure(edges *core.Collection[graph.Edge], bucket int, eps float64, rng *rand.Rand) (Measured, error) {
	if w.impl == nil {
		return Measured{}, fmt.Errorf("workload: %q has no implementation", w.Name)
	}
	b := w.normBucket(bucket)
	h, err := w.impl.measure(edges, b, eps, rng)
	if err != nil {
		return Measured{}, fmt.Errorf("workload %s: %w", w.Name, err)
	}
	return Measured{Workload: w, Bucket: b, Hist: h}, nil
}

// Load reconstructs a previously released measurement from its
// canonical entries (the deserialization path). Unseen records continue
// to draw fresh memoized noise at eps.
func (w Workload) Load(entries []Entry, bucket int, eps float64, rng *rand.Rand) (Measured, error) {
	if w.impl == nil {
		return Measured{}, fmt.Errorf("workload: %q has no implementation", w.Name)
	}
	h, err := w.impl.load(entries, eps, rng)
	if err != nil {
		return Measured{}, fmt.Errorf("workload %s: %w", w.Name, err)
	}
	return Measured{Workload: w, Bucket: w.normBucket(bucket), Hist: h}, nil
}

// Collect builds the workload's pipeline on the plan's executor and
// terminates it in a materializing collector, for tests and inspection.
func (w Workload) Collect(p *Plan, bucket int) Collected {
	return w.impl.collect(p, w.normBucket(bucket))
}

// Exact evaluates the workload's one-shot query over g without noise or
// privacy charge (the graph is treated as public) and returns the exact
// output weights, canonically keyed. This is the reference the
// executor-equivalence tests compare every shard layout against.
func (w Workload) Exact(g *graph.Graph, bucket int) (map[string]float64, error) {
	return w.impl.exact(g, w.normBucket(bucket))
}

// Plan is a fit pipeline under construction on the round-scheduled
// executor: the MCMC input root plus the scorer the attached sinks feed.
// Shards semantics match synth.Config.Shards: 0 selects one shard per
// CPU, >0 an explicit count, and -1 one shard run inline (the same
// layout as 1).
//
// Every plan carries a plan.Memo: workloads that register fused
// builders request their pipeline fragments through it, so attaching
// several workloads to one fusing plan builds a single DAG that shares
// operator prefixes (NewPlan default). A non-fusing plan (NewPlanFused
// with fuse false) builds every workload its private pipeline — the
// pre-fusion behavior, kept as the differential baseline.
type Plan struct {
	eng    *engine.Engine
	engIn  *engine.Input[graph.Edge]
	input  *obsInput // metrics decorator over the root input
	scorer *incremental.Scorer
	memo   *plan.Memo
}

// NewPlan returns an empty fusing plan on the selected executor. Attach
// every workload before pushing data through Input (the executor
// requires subscriptions to complete before the first push).
func NewPlan(shards int) *Plan { return NewPlanFused(shards, true) }

// NewPlanFused is NewPlan with explicit control over prefix fusion:
// fuse false builds per-workload pipelines (the -fuse=false baseline).
func NewPlanFused(shards int, fuse bool) *Plan {
	p := &Plan{scorer: incremental.NewScorer(), memo: plan.New(fuse)}
	p.eng = engine.New(shards)
	p.engIn = engine.NewInput[graph.Edge](p.eng)
	p.input = newObsInput(p.engIn, executorLabel(p.eng))
	return p
}

// Fusion returns the plan's fusion memo: the fused DAG, sharing stats,
// and the per-fragment propagation counter.
func (p *Plan) Fusion() *plan.Memo { return p.memo }

// Input returns the plan's edge-difference entry point: the executor's
// root input behind a metrics decorator that still satisfies
// mcmc.TxnInput and exposes the executor's Pushes counter.
func (p *Plan) Input() Input { return p.input }

// Scorer returns the scorer aggregating every attached sink.
func (p *Plan) Scorer() *incremental.Scorer { return p.scorer }

// Engine returns the executor backing the plan.
func (p *Plan) Engine() *engine.Engine { return p.eng }

// Observation is one attached sink's observation history: the workload
// it was attached under and its records in first-observation order,
// serialized as canonical JSON.
type Observation struct {
	Workload string            `json:"workload"`
	Keys     []json.RawMessage `json:"keys"`
}

// Observations returns every attached sink's observation history, in
// attach order. Feeding each entry's keys back through AttachWithDomain
// on a fresh plan rebuilds the sinks' released-value state exactly —
// the measurement half of a fit checkpoint.
func (p *Plan) Observations() ([]Observation, error) {
	var out []Observation
	var firstErr error
	p.scorer.Each(func(name string, s incremental.SinkScore) {
		if firstErr != nil {
			return
		}
		k, ok := s.(interface {
			ObservedKeys() ([]json.RawMessage, error)
		})
		if !ok {
			firstErr = fmt.Errorf("workload: sink for %q does not expose its observations", name)
			return
		}
		keys, err := k.ObservedKeys()
		if err != nil {
			firstErr = err
			return
		}
		out = append(out, Observation{Workload: name, Keys: keys})
	})
	if firstErr != nil {
		return nil, firstErr
	}
	return out, nil
}

// Builders supplies the two forms of one query plan for record type T.
// The bucket argument is the degree bucket width; workloads that do not
// use it receive 0 and must ignore it.
type Builders[T comparable] struct {
	// Query is the one-shot measurement form over core.Collection.
	Query func(edges *core.Collection[graph.Edge], bucket int) *core.Collection[T]
	// Pipeline is the incremental fit form. It requests reusable
	// fragments through the plan's fusion memo (see wpinq/internal/plan
	// and the builders in wpinq/internal/queries' fused.go), so several
	// workloads attached to one fusing plan share their common operator
	// prefixes; a non-fusing memo builds every fragment privately.
	Pipeline func(m *plan.Memo, edges engine.Source[graph.Edge], bucket int) engine.Source[T]
}

// Define couples a workload's metadata with its typed builders. The
// returned workload is ready to Register.
func Define[T comparable](w Workload, b Builders[T]) Workload {
	if b.Query == nil || b.Pipeline == nil {
		panic(fmt.Sprintf("workload: Define(%q) requires both builders", w.Name))
	}
	w.impl = builders[T]{b}
	return w
}

// builders adapts typed Builders to the type-erased impl interface.
type builders[T comparable] struct {
	b Builders[T]
}

func (bs builders[T]) measure(edges *core.Collection[graph.Edge], bucket int, eps float64, rng *rand.Rand) (Histogram, error) {
	h, err := core.NoisyCount(bs.b.Query(edges, bucket), eps, rng)
	if err != nil {
		return nil, err
	}
	return &typedHist[T]{h: h}, nil
}

func (bs builders[T]) load(entries []Entry, eps float64, rng *rand.Rand) (Histogram, error) {
	counts := make(map[T]float64, len(entries))
	for _, e := range entries {
		var x T
		if err := json.Unmarshal(e.Key, &x); err != nil {
			return nil, fmt.Errorf("decoding record %s: %w", e.Key, err)
		}
		counts[x] = e.Count
	}
	h, err := core.HistogramFromMaterialized(counts, eps, rng)
	if err != nil {
		return nil, err
	}
	return &typedHist[T]{h: h}, nil
}

// source builds the workload's pipeline on the plan's executor through
// the plan's memo. Engine streams implement incremental.Source, so the
// pipeline terminates in the incremental package's sinks.
func (bs builders[T]) source(p *Plan, bucket int) incremental.Source[T] {
	return bs.b.Pipeline(p.memo, p.engIn, bucket)
}

func (bs builders[T]) attach(p *Plan, name string, h Histogram, bucket int, eps float64) error {
	th, ok := h.(*typedHist[T])
	if !ok {
		return fmt.Errorf("workload: histogram has record type %T, want %T", h, &typedHist[T]{})
	}
	// Canonical (sorted-key) domain order: the sink accumulates its
	// initial L1 in domain order, so a map-ordered domain would make the
	// starting score — and with it the whole seeded MCMC trace — vary
	// between runs.
	domain := make([]T, 0, len(th.h.Materialized()))
	keys := make([]string, 0, cap(domain))
	for k := range th.h.Materialized() {
		key, err := json.Marshal(k)
		if err != nil {
			return fmt.Errorf("workload: encoding record %v: %w", k, err)
		}
		domain = append(domain, k)
		keys = append(keys, string(key))
	}
	sort.Sort(&domainByKey[T]{recs: domain, keys: keys})
	sink := incremental.NewNoisyCountSink[T](bs.source(p, bucket), th.h, domain, eps)
	p.scorer.AddNamed(name, sink)
	return nil
}

func (bs builders[T]) attachDomain(p *Plan, name string, h Histogram, bucket int, eps float64, keys []json.RawMessage) error {
	th, ok := h.(*typedHist[T])
	if !ok {
		return fmt.Errorf("workload: histogram has record type %T, want %T", h, &typedHist[T]{})
	}
	domain := make([]T, len(keys))
	for i, k := range keys {
		if err := json.Unmarshal(k, &domain[i]); err != nil {
			return fmt.Errorf("workload: decoding domain record %s: %w", k, err)
		}
	}
	sink := incremental.NewNoisyCountSink[T](bs.source(p, bucket), th.h, domain, eps)
	p.scorer.AddNamed(name, sink)
	return nil
}

// domainByKey sorts a sink domain by its records' canonical JSON keys.
type domainByKey[T comparable] struct {
	recs []T
	keys []string
}

func (s *domainByKey[T]) Len() int           { return len(s.recs) }
func (s *domainByKey[T]) Less(i, j int) bool { return s.keys[i] < s.keys[j] }
func (s *domainByKey[T]) Swap(i, j int) {
	s.recs[i], s.recs[j] = s.recs[j], s.recs[i]
	s.keys[i], s.keys[j] = s.keys[j], s.keys[i]
}

func (bs builders[T]) collect(p *Plan, bucket int) Collected {
	return typedCollected[T]{c: incremental.Collect[T](bs.source(p, bucket))}
}

func (bs builders[T]) exact(g *graph.Graph, bucket int) (map[string]float64, error) {
	q := bs.b.Query(core.FromPublic(graph.SymmetricEdges(g)), bucket)
	return canonicalize(q.Snapshot())
}

// typedCollected adapts an incremental Collector to the Collected view.
type typedCollected[T comparable] struct {
	c *incremental.Collector[T]
}

func (tc typedCollected[T]) Snapshot() (map[string]float64, error) {
	return canonicalize(tc.c.Snapshot())
}

// canonicalize converts a typed weighted dataset to canonical
// key -> weight form.
func canonicalize[T comparable](d *weighted.Dataset[T]) (map[string]float64, error) {
	out := make(map[string]float64, d.Len())
	var err error
	d.Range(func(x T, w float64) {
		key, e := json.Marshal(x)
		if e != nil && err == nil {
			err = e
			return
		}
		out[string(key)] = w
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// typedHist implements Histogram over a core.Histogram[T].
type typedHist[T comparable] struct {
	h *core.Histogram[T]
}

func (t *typedHist[T]) Len() int { return len(t.h.Materialized()) }

func (t *typedHist[T]) Get(key json.RawMessage) (float64, error) {
	var x T
	if err := json.Unmarshal(key, &x); err != nil {
		return 0, fmt.Errorf("workload: decoding record %s: %w", key, err)
	}
	return t.h.Get(x), nil
}

func (t *typedHist[T]) Entries() ([]Entry, error) {
	mat := t.h.Materialized()
	out := make([]Entry, 0, len(mat))
	for x, c := range mat {
		key, err := json.Marshal(x)
		if err != nil {
			return nil, fmt.Errorf("workload: encoding record %v: %w", x, err)
		}
		out = append(out, Entry{Key: key, Count: c})
	}
	sort.Slice(out, func(i, j int) bool { return bytes.Compare(out[i].Key, out[j].Key) < 0 })
	return out, nil
}

func (t *typedHist[T]) Distance(other Histogram) (float64, error) {
	a, err := t.Entries()
	if err != nil {
		return 0, err
	}
	b, err := other.Entries()
	if err != nil {
		return 0, err
	}
	var l1 float64
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		switch {
		case j >= len(b):
			l1 += abs(a[i].Count)
			i++
		case i >= len(a):
			l1 += abs(b[j].Count)
			j++
		default:
			switch cmp := bytes.Compare(a[i].Key, b[j].Key); {
			case cmp < 0:
				l1 += abs(a[i].Count)
				i++
			case cmp > 0:
				l1 += abs(b[j].Count)
				j++
			default:
				l1 += abs(a[i].Count - b[j].Count)
				i, j = i+1, j+1
			}
		}
	}
	return l1, nil
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
