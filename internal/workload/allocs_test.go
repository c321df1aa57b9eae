//go:build !race

// Race builds instrument every allocation, so AllocsPerRun counts are
// meaningless there.

package workload_test

import (
	"math/rand"
	"testing"

	"wpinq/internal/graph"
	"wpinq/internal/mcmc"
	"wpinq/internal/workload"
)

// TestSteadyStateAllocs pins the zero-alloc claim of the pooled hot
// path: once the walk is warm — every group the proposals churn has
// been through the freelist at least once — a committed or aborted
// proposal on the fused 5-workload plan must run in a handful of
// allocations, not O(touched records). The bounds are deliberately
// loose (a proposal that lands on a never-before-seen degree key may
// legitimately miss the pool), but they sit two orders of magnitude
// below the pre-pooling cost, so reintroducing per-push batch or undo
// allocation fails immediately.
//
// The one-shard layout ("serial", Shards -1) runs every round inline
// and is near-deterministic; the three-shard layout with cutoff 0
// dispatches worker goroutines every round, so its bound is wider.
func TestSteadyStateAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("steady-state warm-up is slow under -short")
	}
	fits := measureFits(t, testGraph(t), workload.Names(), 2, 1.0, 11)
	for _, l := range []struct {
		name   string
		shards int
		cutoff int
		budget float64 // allocs per proposal (committed or aborted)
	}{
		{"serial", -1, 0, 60},
		{"engine-3", 3, 0, 600},
	} {
		l := l
		t.Run(l.name, func(t *testing.T) {
			g, err := graph.ErdosRenyi(36, 100, rand.New(rand.NewSource(7)))
			if err != nil {
				t.Fatal(err)
			}
			p, _, _ := fusePlan(t, fits, l.shards, l.cutoff, true, 1.0, 23)
			state := mcmc.NewGraphState(g, p.Input()) // pushes the initial dataset itself
			rng := rand.New(rand.NewSource(99))
			scorer := p.Scorer()

			// step runs one valid proposal end to end. Commit and abort
			// both stay in the loop so the warm-up and the measured
			// passes exercise the same mix the walk does.
			step := func(commit bool) {
				for {
					prop, ok := state.Propose(rng)
					if !ok {
						continue
					}
					state.Speculate(prop)
					scorer.Score()
					if commit {
						state.Commit()
					} else {
						state.Abort(prop)
					}
					return
				}
			}
			for i := 0; i < 300; i++ {
				step(i%2 == 0)
			}

			committed := testing.AllocsPerRun(100, func() { step(true) })
			aborted := testing.AllocsPerRun(100, func() { step(false) })
			t.Logf("allocs/proposal: committed=%.1f aborted=%.1f (budget %.0f)", committed, aborted, l.budget)
			if committed > l.budget {
				t.Errorf("committed proposal: %.1f allocs, budget %.0f", committed, l.budget)
			}
			if aborted > l.budget {
				t.Errorf("aborted proposal: %.1f allocs, budget %.0f", aborted, l.budget)
			}
		})
	}
}
