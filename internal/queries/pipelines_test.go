package queries

import (
	"fmt"
	"math/rand"
	"testing"

	"wpinq/internal/core"
	"wpinq/internal/engine"
	"wpinq/internal/graph"
	"wpinq/internal/incremental"
	"wpinq/internal/weighted"
)

func testRng() *rand.Rand { return rand.New(rand.NewSource(1)) }

// swapDiffs returns the 8 symmetric directed edge differences of replacing
// undirected edges {a,b}, {c,d} with {a,d}, {c,b}.
func swapDiffs(a, b, c, d graph.Node) []incremental.Delta[graph.Edge] {
	return []incremental.Delta[graph.Edge]{
		{Record: graph.Edge{Src: a, Dst: b}, Weight: -1},
		{Record: graph.Edge{Src: b, Dst: a}, Weight: -1},
		{Record: graph.Edge{Src: c, Dst: d}, Weight: -1},
		{Record: graph.Edge{Src: d, Dst: c}, Weight: -1},
		{Record: graph.Edge{Src: a, Dst: d}, Weight: 1},
		{Record: graph.Edge{Src: d, Dst: a}, Weight: 1},
		{Record: graph.Edge{Src: c, Dst: b}, Weight: 1},
		{Record: graph.Edge{Src: b, Dst: c}, Weight: 1},
	}
}

// testGraph builds a small clustered graph with enough structure to
// exercise every pipeline (triangles, squares, degree spread).
func testGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := graph.HolmeKim(40, 3, 0.7, testRng())
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// shardConfigs enumerates the shard layouts the pipeline
// equivalence tests run under; cutoff 0 forces parallel dispatch on every
// round so the race detector sees real concurrency.
var shardConfigs = []struct {
	shards int
	cutoff int
}{
	{1, engine.DefaultSerialCutoff},
	{4, 0},
}

// checkPipelineMatchesQuery loads a graph into a pipeline on every shard
// layout, applies random valid edge swaps, and verifies after each step
// that the pipeline output equals the one-shot query on the current
// graph: the end-to-end equivalence of the two query forms on real
// analyses.
func checkPipelineMatchesQuery[T comparable](
	t *testing.T,
	name string,
	buildPipeline func(engine.Source[graph.Edge]) engine.Source[T],
	buildQuery func(*core.Collection[graph.Edge]) *core.Collection[T],
	swaps int,
) {
	t.Helper()
	for _, cfg := range shardConfigs {
		cfg := cfg
		t.Run(fmt.Sprintf("%s/shards=%d,cutoff=%d", name, cfg.shards, cfg.cutoff), func(t *testing.T) {
			g := testGraph(t)
			eng := engine.New(cfg.shards)
			eng.SetSerialCutoff(cfg.cutoff)
			in := engine.NewInput[graph.Edge](eng)
			out := engine.Collect(buildPipeline(in))
			in.PushDataset(graph.SymmetricEdges(g))

			compare := func(step int) {
				want := buildQuery(core.FromPublic(graph.SymmetricEdges(g))).Snapshot()
				if !weighted.Equal(out.Snapshot(), want, 1e-6) {
					t.Fatalf("%s diverged at step %d", name, step)
				}
			}
			compare(-1)

			rng := rand.New(rand.NewSource(99))
			edges := g.EdgeList()
			for step := 0; step < swaps; step++ {
				ei, ej := rng.Intn(len(edges)), rng.Intn(len(edges))
				if ei == ej {
					continue
				}
				a, b := edges[ei].Src, edges[ei].Dst
				c, d := edges[ej].Src, edges[ej].Dst
				if rng.Intn(2) == 0 {
					c, d = d, c
				}
				if a == d || c == b || a == c || b == d || g.HasEdge(a, d) || g.HasEdge(c, b) {
					continue
				}
				g.RemoveEdge(a, b)
				g.RemoveEdge(c, d)
				g.AddEdge(a, d)
				g.AddEdge(c, b)
				edges[ei] = graph.Edge{Src: a, Dst: d}
				edges[ej] = graph.Edge{Src: c, Dst: b}
				in.Push(swapDiffs(a, b, c, d))
				compare(step)
			}
		})
	}
}

// The per-workload TbI/TbD/JDD equivalence tests that used to live
// here were superseded by the registry-driven table test in
// wpinq/internal/workload (TestRegisteredWorkloadsMatchQueryOnEveryExecutor),
// which covers every registered workload on every shard layout. The
// checks below cover the pipelines that are not registry workloads.

func TestDegreePipelinesMatchQueries(t *testing.T) {
	checkPipelineMatchesQuery(t, "DegreeCCDF",
		DegreeCCDFPipeline, DegreeCCDF, 25)
	checkPipelineMatchesQuery(t, "DegreeSequence",
		DegreeSequencePipeline, DegreeSequence, 25)
}

func TestTbIPipelineRollback(t *testing.T) {
	// Pushing a swap and its inverse restores the pipeline exactly: the
	// MCMC rejection path on a real query.
	g := testGraph(t)
	in := engine.NewInput[graph.Edge](engine.New(1))
	out := incremental.Collect(TbIPipeline(nil, in))
	in.PushDataset(graph.SymmetricEdges(g))
	before := out.Weight(Unit{})

	edges := g.EdgeList()
	a, b := edges[0].Src, edges[0].Dst
	c, d := edges[len(edges)-1].Src, edges[len(edges)-1].Dst
	if a == d || c == b || a == c || b == d || g.HasEdge(a, d) || g.HasEdge(c, b) {
		t.Skip("fixture edges unsuitable for swap")
	}
	in.Push(swapDiffs(a, b, c, d))
	in.Push(swapDiffs(a, d, c, b)) // inverse: {a,d},{c,b} -> {a,b},{c,d}
	after := out.Weight(Unit{})
	if diff := after - before; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("rollback drift: %v -> %v", before, after)
	}
}

func TestEngineDegreeCCDFPipelineMatchesQuery(t *testing.T) {
	checkPipelineMatchesQuery(t, "EngineDegreeCCDF",
		DegreeCCDFPipeline, DegreeCCDF, 12)
}

func TestEngineDegreeSequencePipelineMatchesQuery(t *testing.T) {
	checkPipelineMatchesQuery(t, "EngineDegreeSequence",
		DegreeSequencePipeline, DegreeSequence, 12)
}

// Engine TbI/TbD/JDD equivalence moved to the registry-driven table
// test in wpinq/internal/workload, which runs every registered workload
// across executors and shard layouts.

func TestEngineSbDPipelineMatchesQuery(t *testing.T) {
	if testing.Short() {
		t.Skip("SbD pipeline is the heaviest; skipped in -short mode")
	}
	checkPipelineMatchesQuery(t, "EngineSbD",
		SbDPipeline, SbD, 4)
}
