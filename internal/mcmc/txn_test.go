package mcmc

import (
	"math/rand"
	"testing"

	"wpinq/internal/engine"
	"wpinq/internal/graph"
	"wpinq/internal/incremental"
	"wpinq/internal/queries"
)

// Tests of the transactional propose/score/commit-or-abort protocol: a
// rejected proposal must cost exactly one propagation (down from two
// under inverse-push rejection), and the seeded walk it produces must be
// byte-identical — accept/reject decisions and final edge list — to the
// pre-transactional inverse-swap path on both executors.

// plainInput hides an input's transactional methods, so NewGraphState
// falls back to the inverse-push rejection path (Apply + Revert). The
// comparison tests use it to run the pre-transactional protocol on
// today's code.
type plainInput struct{ Input }

// pushCounter is the propagation counter both executors' inputs expose.
type pushCounter interface{ Pushes() uint64 }

// lazyObs mimics core.Histogram's memoized lazy noise: a record's
// observation is drawn on first Get and cached. Two instances with
// identically seeded rngs draw identical streams as long as records are
// first requested in the same order — which is itself part of what the
// trace-identity test pins.
type lazyObs[T comparable] struct {
	rng  *rand.Rand
	vals map[T]float64
}

func newLazyObs[T comparable](seed int64) *lazyObs[T] {
	return &lazyObs[T]{rng: testRng(seed), vals: make(map[T]float64)}
}

func (o *lazyObs[T]) Get(x T) float64 {
	if v, ok := o.vals[x]; ok {
		return v
	}
	v := o.rng.NormFloat64() * 3
	o.vals[x] = v
	return v
}

// txnFixture couples a scoring graph state to the concrete input it was
// built on.
type txnFixture struct {
	state   *GraphState
	scorer  *incremental.Scorer
	counter pushCounter
}

// buildTxnFixture wires a three-sink fit — triangle count (TbI), degree
// sequence, and the joint degree distribution against lazily-drawn
// observations — on an executor with the given shard layout (-1 is the
// one inline shard, like 1); wrapPlain hides the transactional protocol.
// cutoff 0 forces parallel dispatch on multi-shard layouts.
func buildTxnFixture(g *graph.Graph, shards, cutoff int, wrapPlain bool, obsSeed int64) txnFixture {
	return buildFixture(g, shards, cutoff, wrapPlain, newLazyObs[queries.DegPair](obsSeed))
}

func buildFixture(g *graph.Graph, shards, cutoff int, wrapPlain bool, jddObs incremental.Observations[queries.DegPair]) txnFixture {
	e := engine.New(shards)
	e.SetSerialCutoff(cutoff)
	in := engine.NewInput[graph.Edge](e)
	degTargets := incremental.MapObservations[int]{0: 8, 1: 6, 2: 5, 3: 3}
	sink1 := incremental.NewNoisyCountSink[queries.Unit](
		queries.TbIPipeline(nil, in), incremental.MapObservations[queries.Unit]{{}: 45}, []queries.Unit{{}}, 0.5)
	sink2 := incremental.NewNoisyCountSink[int](
		queries.DegreeSequencePipeline(in), degTargets, nil, 0.3)
	sink3 := incremental.NewNoisyCountSink[queries.DegPair](
		queries.JDDPipeline(nil, in), jddObs, nil, 0.4)
	var input Input = in
	if wrapPlain {
		input = plainInput{input}
	}
	state := NewGraphState(g, input)
	return txnFixture{state: state, scorer: incremental.NewScorer(sink1, sink2, sink3), counter: in}
}

// stepTrace is one observed walk step.
type stepTrace struct {
	accepted bool
}

// runTraced runs n steps recording per-step accept decisions.
func runTraced(t *testing.T, f txnFixture, pow float64, rngSeed int64, n int) (Stats, []stepTrace) {
	t.Helper()
	var trace []stepTrace
	r, err := NewRunner(f.state, f.scorer, Config{
		Pow:    pow,
		OnStep: func(step int, accepted bool, score float64) { trace = append(trace, stepTrace{accepted}) },
	}, testRng(rngSeed))
	if err != nil {
		t.Fatal(err)
	}
	return r.Run(n), trace
}

// TestTxnTraceMatchesInversePushPath pins the protocol swap end to end:
// for a fixed seed, the transactional walk's accept/reject decisions and
// final edge list are byte-identical to the pre-transactional
// inverse-push walk, on one-shard and multi-shard layouts.
// (Scores are not compared bitwise: the inverse-push path re-derives
// state arithmetically and its scalar accumulators can drift by ~1e-15
// on rare rejects, which is exactly the imprecision the undo log
// removes; such drift would flip a decision only at an astronomically
// near tie.)
func TestTxnTraceMatchesInversePushPath(t *testing.T) {
	for _, cfg := range []struct {
		name           string
		shards, cutoff int
	}{
		{"serial", -1, 0},
		{"engine1", 1, engine.DefaultSerialCutoff},
		{"engine3", 3, engine.DefaultSerialCutoff},
	} {
		t.Run(cfg.name, func(t *testing.T) {
			rng := testRng(21)
			g, err := graph.ErdosRenyi(50, 140, rng)
			if err != nil {
				t.Fatal(err)
			}
			txn := buildTxnFixture(g, cfg.shards, cfg.cutoff, false, 77)
			old := buildTxnFixture(g, cfg.shards, cfg.cutoff, true, 77)
			if !txn.state.Transactional() {
				t.Fatal("transactional fixture did not detect a TxnInput")
			}
			if old.state.Transactional() {
				t.Fatal("plain-wrapped fixture still transactional")
			}

			stTxn, trTxn := runTraced(t, txn, 300, 99, 1500)
			stOld, trOld := runTraced(t, old, 300, 99, 1500)

			if stTxn.Steps != stOld.Steps || stTxn.Accepted != stOld.Accepted ||
				stTxn.Rejected != stOld.Rejected || stTxn.Invalid != stOld.Invalid {
				t.Fatalf("walk statistics diverge: txn %+v vs inverse-push %+v", stTxn, stOld)
			}
			for i := range trTxn {
				if trTxn[i] != trOld[i] {
					t.Fatalf("decision %d diverges: txn accepted=%v, inverse-push accepted=%v",
						i, trTxn[i].accepted, trOld[i].accepted)
				}
			}
			ea, eb := txn.state.Graph().EdgeList(), old.state.Graph().EdgeList()
			if len(ea) != len(eb) {
				t.Fatalf("edge counts diverge: %d vs %d", len(ea), len(eb))
			}
			for i := range ea {
				if ea[i] != eb[i] {
					t.Fatalf("edge lists diverge at %d: %v vs %v", i, ea[i], eb[i])
				}
			}
			if diff := stTxn.FinalScore - stOld.FinalScore; diff > 1e-9 || diff < -1e-9 {
				t.Errorf("final scores diverge beyond accumulator drift: %v vs %v", stTxn.FinalScore, stOld.FinalScore)
			}
		})
	}
}

// TestTxnRejectCostsOnePropagation is the reject-heavy regression test:
// with the propagation counter on both executors' inputs, a run at a pow
// harsh enough to reject the overwhelming majority of proposals must
// propagate exactly once per valid proposal — bulk load + accepted +
// rejected — where the inverse-push path paid a second propagation per
// reject.
func TestTxnRejectCostsOnePropagation(t *testing.T) {
	for _, cfg := range []struct {
		name           string
		shards, cutoff int
	}{
		{"serial", -1, 0},
		{"engine2", 2, engine.DefaultSerialCutoff},
	} {
		t.Run(cfg.name, func(t *testing.T) {
			rng := testRng(31)
			g, err := graph.ErdosRenyi(40, 110, rng)
			if err != nil {
				t.Fatal(err)
			}
			run := func(wrapPlain bool) (Stats, uint64) {
				f := buildTxnFixture(g, cfg.shards, cfg.cutoff, wrapPlain, 78)
				r, err := NewRunner(f.state, f.scorer, Config{Pow: 1e7}, testRng(41))
				if err != nil {
					t.Fatal(err)
				}
				st := r.Run(600)
				return st, f.counter.Pushes()
			}

			st, pushes := run(false)
			if st.Rejected < 200 {
				t.Fatalf("fixture is not reject-heavy: %+v", st)
			}
			want := uint64(1 + st.Accepted + st.Rejected) // bulk load + one per valid proposal
			if pushes != want {
				t.Errorf("transactional run propagated %d times, want %d (exactly 1 per proposal)", pushes, want)
			}

			stOld, pushesOld := run(true)
			wantOld := uint64(1 + stOld.Accepted + 2*stOld.Rejected)
			if pushesOld != wantOld {
				t.Errorf("inverse-push run propagated %d times, want %d (2 per reject)", pushesOld, wantOld)
			}
		})
	}
}

// TestTxnRandomCommitAbortLeavesNoTrace is the swap-sequence fuzz test:
// a random interleaving of committed and aborted proposals must leave
// the graph, every operator's state, the sinks' L1 accumulators, and the
// score bit-identical to a twin that applied only the committed swaps —
// and equal, to float-accumulation tolerance, to a fresh pipeline
// bulk-loaded with the final edge list. Runs across one-shard and
// multi-shard layouts (including a cutoff-0 layout so -race exercises
// speculative rounds under parallel dispatch).
func TestTxnRandomCommitAbortLeavesNoTrace(t *testing.T) {
	for _, cfg := range []struct {
		name           string
		shards, cutoff int
	}{
		{"serial", -1, 0},
		{"engine1", 1, engine.DefaultSerialCutoff},
		{"engine3-cutoff0", 3, 0},
	} {
		t.Run(cfg.name, func(t *testing.T) {
			rng := testRng(51)
			g, err := graph.ErdosRenyi(45, 120, rng)
			if err != nil {
				t.Fatal(err)
			}
			// Fixed observations only: aborted proposals must not consume
			// lazy noise draws the committed-only twin never sees.
			subject := buildFixedObsFixture(g, cfg.shards, cfg.cutoff)
			twin := buildFixedObsFixture(g, cfg.shards, cfg.cutoff)

			commits := 0
			for i := 0; i < 1200; i++ {
				p, ok := subject.state.Propose(rng)
				if !ok {
					continue
				}
				subject.state.Speculate(p)
				_ = subject.scorer.Score() // score while speculative, like the sampler
				if rng.Intn(2) == 0 {
					subject.state.Commit()
					twin.state.Apply(p)
					commits++
				} else {
					subject.state.Abort(p)
				}
			}
			if commits < 200 {
				t.Fatalf("only %d commits; fixture too degenerate", commits)
			}

			ea, eb := subject.state.Graph().EdgeList(), twin.state.Graph().EdgeList()
			if len(ea) != len(eb) {
				t.Fatalf("edge counts diverge: %d vs %d", len(ea), len(eb))
			}
			for i := range ea {
				if ea[i] != eb[i] {
					t.Fatalf("edge lists diverge at %d: %v vs %v", i, ea[i], eb[i])
				}
			}
			if gotScore, wantScore := subject.scorer.Score(), twin.scorer.Score(); gotScore != wantScore {
				t.Errorf("score %v, want %v (bit-exact vs committed-only twin)", gotScore, wantScore)
			}

			// A fresh pipeline loaded with the final edge list agrees to
			// accumulation tolerance (exactly the guarantee periodic
			// Recompute relies on).
			fresh := buildFixedObsFixture(subject.state.Graph(), cfg.shards, cfg.cutoff)
			if diff := subject.scorer.Score() - fresh.scorer.Score(); diff > 1e-7 || diff < -1e-7 {
				t.Errorf("score %v diverges from fresh bulk load %v by %v",
					subject.scorer.Score(), fresh.scorer.Score(), diff)
			}
			if diff := subject.scorer.Recompute() - fresh.scorer.Recompute(); diff != 0 {
				// Recomputed scores iterate each sink's observation order;
				// both saw the same records (fixed observations, same final
				// graph), though possibly in different orders, so allow
				// accumulation-order drift only.
				if diff > 1e-9 || diff < -1e-9 {
					t.Errorf("recomputed score diverges from fresh bulk load by %v", diff)
				}
			}
		})
	}
}

// buildFixedObsFixture is buildTxnFixture with every observation fixed
// up front (no lazy noise), for tests that replay subsets of a proposal
// sequence.
func buildFixedObsFixture(g *graph.Graph, shards, cutoff int) txnFixture {
	return buildFixture(g, shards, cutoff, false, incremental.MapObservations[queries.DegPair]{})
}

// TestTxnAbortRestoresScoreExactly drives the sampler's own rejection
// path and checks, proposal by proposal, that an abort restores the
// scorer bit-exactly — the property the inverse-push path only held to
// within float drift.
func TestTxnAbortRestoresScoreExactly(t *testing.T) {
	rng := testRng(61)
	g, err := graph.ErdosRenyi(45, 120, rng)
	if err != nil {
		t.Fatal(err)
	}
	f := buildFixedObsFixture(g, -1, 0)
	for i := 0; i < 2000; i++ {
		p, ok := f.state.Propose(rng)
		if !ok {
			continue
		}
		before := f.scorer.Score()
		f.state.Speculate(p)
		_ = f.scorer.Score()
		f.state.Abort(p)
		if after := f.scorer.Score(); after != before {
			t.Fatalf("proposal %d: abort restored score %v, want %v (diff %g)",
				i, after, before, after-before)
		}
	}
}
