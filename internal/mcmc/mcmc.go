// Package mcmc implements the Metropolis-Hastings sampler of paper Section
// 4.2 over synthetic graphs, using the incremental dataflow engine to score
// each proposal in time proportional to the change.
//
// The state is a synthetic graph; the random walk is the degree-preserving
// edge swap of Section 5.1 (replace edges (a,b), (c,d) with (a,d), (c,b));
// the score is sum_i eps_i * ||Q_i(A) - m_i||_1 over the released noisy
// measurements, and a proposal is accepted with probability
//
//	min(1, exp(-pow * (scoreNew - scoreOld)))
//
// so the walk's limiting distribution is proportional to
// exp(-pow * sum_i eps_i * ||Q_i(A) - m_i||_1) — the posterior over
// datasets given the measurements, sharpened by pow.
//
// (The paper's Section 4.2 prints the score without the negation; the sign
// must be negative for the posterior to concentrate on good fits, matching
// the Laplace likelihood. See DESIGN.md "Known deviations".)
//
// Scoring is transactional on every executor layout: each proposal's edge
// differences propagate exactly once, speculatively, and a rejection
// restores the dataflow's pre-proposal state from per-operator undo
// logs instead of propagating the inverse swap a second time (DESIGN.md
// "Transactional scoring"). Inputs that do not implement TxnInput fall
// back to inverse-push rejection.
package mcmc

import (
	"errors"
	"math"
	"math/rand"

	"wpinq/internal/graph"
	"wpinq/internal/incremental"
	"wpinq/internal/weighted"
)

// Input is the dataflow entry point the sampler drives: it accepts the
// edge differences of a proposed swap and propagates them synchronously
// to every subscribed pipeline. The dataflow executor's
// *engine.Input[graph.Edge] satisfies it, as does a bare
// *incremental.Input[graph.Edge], so the sampler is agnostic to what
// scores proposals.
type Input interface {
	Push(batch []incremental.Delta[graph.Edge])
	PushDataset(d *weighted.Dataset[graph.Edge])
}

// TxnInput is an Input whose dataflow graph supports transactional
// pushes (see incremental.TxnOp): a proposal's edge differences are
// propagated once, speculatively, and a rejection restores every
// stateful operator's pre-image from undo logs in O(touched keys)
// instead of propagating the inverse differences a second time. The
// executor's input (*engine.Input[graph.Edge]) satisfies it, so the
// sampler uses the protocol automatically; a plain Input falls back to
// inverse-push rejection.
type TxnInput interface {
	Input
	// Begin opens a transaction; subsequent pushes are speculative.
	Begin()
	// Commit keeps the speculative pushes and discards the undo logs.
	Commit()
	// Abort restores the pre-transaction dataflow state from the logs.
	Abort()
}

// GraphState is a synthetic graph coupled to the edge-difference input of
// one or more incremental query pipelines. Mutations go through proposals
// so the graph, the edge list, and the dataflow state never diverge.
type GraphState struct {
	g     *graph.Graph
	edges []graph.Edge // normalized (Src < Dst) undirected edge list
	input Input
	txn   TxnInput // input's transactional view, nil when unsupported

	// swapBatch is the reusable eight-delta proposal batch. Push consumes
	// the slice synchronously (the engine drains its round inside
	// Push), so reusing it
	// across proposals is safe and keeps Apply allocation-free.
	swapBatch []incremental.Delta[graph.Edge]
}

// NewGraphState couples g (cloned) to input and pushes the initial edge
// dataset through the dataflow graph. All pipeline subscriptions on input
// must be in place before this call.
//
// The bulk load is pushed in edge-list order (not weighted-dataset map
// order) so the dataflow's floating-point state — and therefore a seeded
// walk's accept/reject trace — is bit-reproducible across runs.
func NewGraphState(g *graph.Graph, input Input) *GraphState {
	s := &GraphState{
		g:     g.Clone(),
		edges: g.EdgeList(),
		input: input,
	}
	if t, ok := input.(TxnInput); ok {
		s.txn = t
	}
	batch := make([]incremental.Delta[graph.Edge], 0, 2*len(s.edges))
	for _, e := range s.edges {
		batch = append(batch,
			incremental.Delta[graph.Edge]{Record: graph.Edge{Src: e.Src, Dst: e.Dst}, Weight: 1},
			incremental.Delta[graph.Edge]{Record: graph.Edge{Src: e.Dst, Dst: e.Src}, Weight: 1},
		)
	}
	s.input.Push(batch)
	return s
}

// Graph returns the live synthetic graph. Callers must treat it as
// read-only; mutations outside proposals would desynchronize the dataflow.
func (s *GraphState) Graph() *graph.Graph { return s.g }

// NumEdges returns the number of undirected edges (invariant under swaps).
func (s *GraphState) NumEdges() int { return len(s.edges) }

// Proposal is one candidate edge swap: undirected edges {A,B} and {C,D}
// (at edge-list indices I and J) are replaced by {A,D} and {C,B}.
type Proposal struct {
	I, J       int
	A, B, C, D graph.Node
}

// Propose draws a random edge swap. ok is false when the draw is invalid
// (self-loop, duplicate edge, or shared endpoints) — invalid draws are
// simply skipped by the runner, as in the paper's random walk.
func (s *GraphState) Propose(rng *rand.Rand) (p Proposal, ok bool) {
	if len(s.edges) < 2 {
		return Proposal{}, false
	}
	i := rng.Intn(len(s.edges))
	j := rng.Intn(len(s.edges))
	if i == j {
		return Proposal{}, false
	}
	a, b := s.edges[i].Src, s.edges[i].Dst
	c, d := s.edges[j].Src, s.edges[j].Dst
	// Flip orientation half the time so both re-pairings are reachable
	// (keeps the walk symmetric).
	if rng.Intn(2) == 0 {
		c, d = d, c
	}
	if a == d || c == b || a == c || b == d {
		return Proposal{}, false
	}
	if s.g.HasEdge(a, d) || s.g.HasEdge(c, b) {
		return Proposal{}, false
	}
	return Proposal{I: i, J: j, A: a, B: b, C: c, D: d}, true
}

// Apply performs the swap on the graph and propagates the eight directed
// edge differences through the dataflow.
func (s *GraphState) Apply(p Proposal) {
	s.g.RemoveEdge(p.A, p.B)
	s.g.RemoveEdge(p.C, p.D)
	s.g.AddEdge(p.A, p.D)
	s.g.AddEdge(p.C, p.B)
	s.edges[p.I] = normEdge(p.A, p.D)
	s.edges[p.J] = normEdge(p.C, p.B)
	s.swapBatch = append(s.swapBatch[:0],
		incremental.Delta[graph.Edge]{Record: graph.Edge{Src: p.A, Dst: p.B}, Weight: -1},
		incremental.Delta[graph.Edge]{Record: graph.Edge{Src: p.B, Dst: p.A}, Weight: -1},
		incremental.Delta[graph.Edge]{Record: graph.Edge{Src: p.C, Dst: p.D}, Weight: -1},
		incremental.Delta[graph.Edge]{Record: graph.Edge{Src: p.D, Dst: p.C}, Weight: -1},
		incremental.Delta[graph.Edge]{Record: graph.Edge{Src: p.A, Dst: p.D}, Weight: 1},
		incremental.Delta[graph.Edge]{Record: graph.Edge{Src: p.D, Dst: p.A}, Weight: 1},
		incremental.Delta[graph.Edge]{Record: graph.Edge{Src: p.C, Dst: p.B}, Weight: 1},
		incremental.Delta[graph.Edge]{Record: graph.Edge{Src: p.B, Dst: p.C}, Weight: 1},
	)
	s.input.Push(s.swapBatch)
}

// Revert undoes a just-applied proposal by applying the inverse swap:
// the pre-transactional Metropolis rejection path, costing a second full
// propagation. Speculate/Abort is the cheap path; Revert remains the
// fallback for non-transactional inputs and the reference the
// transactional path is trace-tested against.
func (s *GraphState) Revert(p Proposal) {
	s.Apply(Proposal{I: p.I, J: p.J, A: p.A, B: p.D, C: p.C, D: p.B})
}

// Transactional reports whether the coupled input supports the
// propose/score/commit-or-abort protocol.
func (s *GraphState) Transactional() bool { return s.txn != nil }

// Speculate performs the swap inside a transaction when the input
// supports one (reported by the return value): the eight edge
// differences propagate exactly once, with every stateful operator
// logging pre-images, and the proposal stays pending until Commit or
// Abort. On a plain input it degenerates to Apply, whose rejection path
// is Revert.
func (s *GraphState) Speculate(p Proposal) bool {
	if s.txn == nil {
		s.Apply(p)
		return false
	}
	s.txn.Begin()
	s.Apply(p)
	return true
}

// Commit accepts the pending speculative proposal (no-op on a plain
// input: Apply already committed it).
func (s *GraphState) Commit() {
	if s.txn != nil {
		s.txn.Commit()
	}
}

// Abort rejects a just-speculated proposal: the graph and edge-list
// mutations are unwound directly (set operations, exactly invertible)
// and the dataflow state is restored from the operators' undo logs in
// O(touched keys) — no second propagation. On a plain input it falls
// back to Revert.
func (s *GraphState) Abort(p Proposal) {
	if s.txn == nil {
		s.Revert(p)
		return
	}
	s.g.RemoveEdge(p.A, p.D)
	s.g.RemoveEdge(p.C, p.B)
	s.g.AddEdge(p.A, p.B)
	s.g.AddEdge(p.C, p.D)
	s.edges[p.I] = normEdge(p.A, p.B)
	s.edges[p.J] = normEdge(p.C, p.D)
	s.txn.Abort()
}

func normEdge(u, v graph.Node) graph.Edge {
	if u > v {
		u, v = v, u
	}
	return graph.Edge{Src: u, Dst: v}
}

// Config parameterizes a Metropolis-Hastings run.
type Config struct {
	// Pow sharpens the posterior (paper Section 4.2); the experiments use
	// 10000 to make MCMC behave like a greedy fit.
	Pow float64
	// PowSchedule, when set, overrides Pow with a per-step value — an
	// annealing schedule. The paper notes large pow "slows down the
	// convergence of MCMC but eventually results in outputs that more
	// closely fit the measurements"; ramping pow from small to large takes
	// both sides of that trade-off (an extension beyond the paper's fixed
	// pow). The schedule must return positive values.
	PowSchedule func(step int) float64
	// RecomputeEvery squashes floating-point drift in the sinks every this
	// many accepted steps (0 disables; 1<<16 is a sensible default).
	RecomputeEvery int
	// OnStep, when set, observes every step (including invalid proposals)
	// after it resolves. Useful for tracing fit trajectories.
	OnStep func(step int, accepted bool, score float64)
}

// Stats summarizes a run.
type Stats struct {
	Steps      int
	Accepted   int
	Rejected   int
	Invalid    int
	FinalScore float64
}

// AcceptRate returns the fraction of attempted steps whose proposal was
// accepted, Accepted/Steps. Invalid draws count as attempts — they spend
// walk budget exactly like rejections — and a run of zero steps has rate
// 0 by definition, so callers need no ad-hoc +1 denominators to dodge
// the division.
func (s Stats) AcceptRate() float64 {
	if s.Steps == 0 {
		return 0
	}
	return float64(s.Accepted) / float64(s.Steps)
}

// Runner drives Metropolis-Hastings over a GraphState against a Scorer.
type Runner struct {
	state  *GraphState
	scorer *incremental.Scorer
	cfg    Config
	rng    *rand.Rand

	score          float64
	step           int
	sinceRecompute int
}

// NewRunner builds a runner. The scorer must already observe the pipelines
// fed by the state's input.
func NewRunner(state *GraphState, scorer *incremental.Scorer, cfg Config, rng *rand.Rand) (*Runner, error) {
	if state == nil || scorer == nil {
		return nil, errors.New("mcmc: state and scorer are required")
	}
	if cfg.Pow <= 0 && cfg.PowSchedule == nil {
		return nil, errors.New("mcmc: Pow must be positive (or supply PowSchedule)")
	}
	return &Runner{
		state:  state,
		scorer: scorer,
		cfg:    cfg,
		rng:    rng,
		score:  scorer.Score(),
	}, nil
}

// pow returns the posterior sharpening for the current step.
func (r *Runner) pow() float64 {
	if r.cfg.PowSchedule != nil {
		return r.cfg.PowSchedule(r.step)
	}
	return r.cfg.Pow
}

// Score returns the current fit score (lower is better).
func (r *Runner) Score() float64 { return r.score }

// Scorer returns the scorer the runner scores proposals against, for
// residual diagnostics over the attached sinks.
func (r *Runner) Scorer() *incremental.Scorer { return r.scorer }

// State returns the runner's graph state.
func (r *Runner) State() *GraphState { return r.state }

// Step attempts one Metropolis-Hastings transition and reports whether a
// proposal was accepted.
func (r *Runner) Step() bool {
	accepted, valid := r.transition()
	r.step++
	return accepted && valid
}

// transition performs one propose/score/commit-or-abort cycle. valid is
// false when the proposal draw was degenerate (nothing changed). The
// proposal's differences propagate exactly once: on transactional inputs
// a rejection unwinds state from the operators' undo logs instead of
// propagating the inverse swap (the pre-transactional path, still taken
// for plain inputs via Speculate's Apply/Revert fallback).
func (r *Runner) transition() (accepted, valid bool) {
	p, ok := r.state.Propose(r.rng)
	if !ok {
		return false, false
	}
	old := r.score
	r.state.Speculate(p)
	next := r.scorer.Score()
	accept := next <= old
	if !accept {
		accept = r.rng.Float64() < math.Exp(-r.pow()*(next-old))
	}
	if accept {
		r.state.Commit()
		r.score = next
		r.sinceRecompute++
		if r.cfg.RecomputeEvery > 0 && r.sinceRecompute >= r.cfg.RecomputeEvery {
			r.score = r.scorer.Recompute()
			r.sinceRecompute = 0
		}
		return true, true
	}
	r.state.Abort(p)
	return false, true
}

// Run performs steps transitions and returns run statistics.
func (r *Runner) Run(steps int) Stats {
	st := Stats{Steps: steps}
	for i := 0; i < steps; i++ {
		accepted, valid := r.transition()
		switch {
		case !valid:
			st.Invalid++
		case accepted:
			st.Accepted++
		default:
			st.Rejected++
		}
		if r.cfg.OnStep != nil {
			r.cfg.OnStep(r.step, accepted, r.score)
		}
		r.step++
	}
	st.FinalScore = r.score
	recordRun(st)
	return st
}
