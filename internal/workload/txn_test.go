package workload_test

import (
	"math/rand"
	"testing"

	"wpinq/internal/budget"
	"wpinq/internal/core"
	"wpinq/internal/graph"
	"wpinq/internal/mcmc"
	"wpinq/internal/workload"
)

// TestPlanInputsAreTransactional pins the wire-through: every shard
// layout (one inline shard, auto-sharded, explicit shards)
// exposes an input implementing mcmc.TxnInput, so Phase 2 synthesis
// scores proposals with one propagation per rejected step on whichever
// executor the configuration selects.
func TestPlanInputsAreTransactional(t *testing.T) {
	for _, shards := range []int{-1, 0, 1, 3} {
		p := workload.NewPlan(shards)
		if shards == -1 && p.Engine().Shards() != 1 {
			t.Errorf("shards=-1: plan runs %d shards, want one inline shard", p.Engine().Shards())
		}
		w, err := workload.Get("tbi")
		if err != nil {
			t.Fatal(err)
		}
		// Attach a real pipeline so the transactional protocol has nodes
		// to traverse, then couple the sampler.
		rng := rand.New(rand.NewSource(5))
		g, err := graph.ErdosRenyi(20, 40, rng)
		if err != nil {
			t.Fatal(err)
		}
		src := budget.NewSource("edges", float64(w.Uses)*(1+1e-9))
		edges := core.FromDataset(graph.SymmetricEdges(g), src)
		m, err := w.Measure(edges, 0, 1, rng)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Attach(p, 1); err != nil {
			t.Fatal(err)
		}
		if _, ok := p.Input().(mcmc.TxnInput); !ok {
			t.Errorf("shards=%d: plan input %T does not implement mcmc.TxnInput", shards, p.Input())
		}
		state := mcmc.NewGraphState(g, p.Input())
		if !state.Transactional() {
			t.Errorf("shards=%d: GraphState did not adopt the transactional protocol", shards)
		}
	}
}
