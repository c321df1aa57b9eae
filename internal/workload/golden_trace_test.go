package workload_test

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"wpinq/internal/engine"
	"wpinq/internal/graph"
	"wpinq/internal/mcmc"
)

// updateGolden rewrites the committed golden trace files from this run.
// The goldens are the pooled-vs-unpooled twin of the memory-model work:
// they were generated before buffer pooling and record interning landed,
// so a pooled hot path that perturbs a single accept/reject decision, an
// emitted record, or a float accumulation order fails these tests.
var updateGolden = flag.Bool("update-golden", false, "rewrite golden MCMC trace files")

// goldenNames are the workloads the golden walks fit: the same
// motif-free set the fused-vs-unfused differential suite traces.
// motif-star4's embedding chain multiplies per-step work by ~d^3 and
// would push a 1500-step walk past any sane test budget without adding
// operator coverage (its joins and group-bys are the ones tbi/tbd/jdd
// already exercise).
var goldenNames = []string{"tbi", "tbd", "jdd", "wedges"}

// goldenTrace is the serialized form of a fuseTrace. Scores are compared
// to 1e-9 relative (construction-order float drift); everything else is
// exact.
type goldenTrace struct {
	Decisions   string    `json:"decisions"`
	Scores      []float64 `json:"scores"`
	Edges       string    `json:"edges"`
	InputPushes uint64    `json:"input_pushes"`
	MemoPushes  uint64    `json:"memo_pushes"`
}

// TestGoldenTrace pins the full seeded 1500-step fused 5-workload walk
// against a committed trace file on the layouts that are bit-reproducible
// across processes: the one-shard engine, requested as Shards -1
// ("serial") and as 1. Both replay the same golden. (Multi-shard engines
// route by a per-process hash seed, so their accumulation order is
// reproducible only in-process; the engine-3 coverage is
// TestEngine3MatchesSerialForcedWalk below.)
func TestGoldenTrace(t *testing.T) {
	const steps = 1500
	fits := measureFits(t, testGraph(t), goldenNames, 2, 1.0, 11)
	for _, l := range []struct {
		name   string
		shards int
		cutoff int
	}{
		{"serial", -1, 0},
		{"engine-1", 1, engine.DefaultSerialCutoff},
	} {
		l := l
		t.Run(l.name, func(t *testing.T) {
			tr := runFuseTrace(t, fits, l.shards, l.cutoff, true, steps)
			got := goldenTrace{
				Decisions:   tr.decisions,
				Scores:      tr.scores,
				Edges:       tr.edges,
				InputPushes: tr.inputPushes,
				MemoPushes:  tr.memoPushes,
			}
			path := filepath.Join("testdata", "golden_trace_engine-1.json")
			if *updateGolden {
				b, err := json.MarshalIndent(got, "", " ")
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("wrote %s (%d steps, %d accepted)", path, steps, tr.stats.Accepted)
				return
			}
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (regenerate with -update-golden)", err)
			}
			var want goldenTrace
			if err := json.Unmarshal(raw, &want); err != nil {
				t.Fatal(err)
			}
			if got.Decisions != want.Decisions {
				i := 0
				for i < len(got.Decisions) && i < len(want.Decisions) && got.Decisions[i] == want.Decisions[i] {
					i++
				}
				t.Fatalf("decision stream diverges from golden at step %d", i)
			}
			if got.Edges != want.Edges {
				t.Fatalf("final edge list differs from golden after identical decisions")
			}
			if len(got.Scores) != len(want.Scores) {
				t.Fatalf("score count %d, golden %d", len(got.Scores), len(want.Scores))
			}
			for i := range got.Scores {
				if !scoresClose(got.Scores[i], want.Scores[i]) {
					t.Fatalf("step %d: score %v, golden %v", i, got.Scores[i], want.Scores[i])
				}
			}
			if got.InputPushes != want.InputPushes {
				t.Errorf("input pushes %d, golden %d", got.InputPushes, want.InputPushes)
			}
			if got.MemoPushes != want.MemoPushes {
				t.Errorf("fragment batch deliveries %d, golden %d", got.MemoPushes, want.MemoPushes)
			}
		})
	}
}

// TestEngine3MatchesSerialForcedWalk covers the layout the golden files
// cannot: a genuinely parallel three-shard engine, whose per-process
// routing seed makes its accumulation order reproducible only
// in-process. Both executors are driven through the same deterministic
// proposal sequence with a forced commit/abort alternation (no
// float-dependent branching), and after the walk every workload's
// collected output weights must agree to float tolerance.
//
// Scores are deliberately not compared across executors: a sink's L1
// permanently includes |m(x)| for every record it has ever observed,
// and executors with different batch granularity explore different
// transient records (a record whose net weight cancels within one
// executor's batch never reaches the sink there, but does on the
// other). The maintained state — what pooling and packed encodings
// could corrupt — is the snapshot, and that must match.
func TestEngine3MatchesSerialForcedWalk(t *testing.T) {
	const steps = 400
	fits := measureFits(t, testGraph(t), goldenNames, 2, 1.0, 11)

	run := func(shards, cutoff int) (snaps []map[string]float64, edges string) {
		g, err := graph.ErdosRenyi(36, 100, rand.New(rand.NewSource(7)))
		if err != nil {
			t.Fatal(err)
		}
		p, _, cols := fusePlan(t, fits, shards, cutoff, true, 1.0, 23)
		state := mcmc.NewGraphState(g, p.Input()) // pushes the initial dataset itself
		rng := rand.New(rand.NewSource(99))
		valid := 0
		for valid < steps {
			prop, ok := state.Propose(rng)
			if !ok {
				continue
			}
			valid++
			state.Speculate(prop)
			if valid%2 == 0 {
				state.Commit()
			} else {
				state.Abort(prop)
			}
		}
		for _, c := range cols {
			snap, err := c.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			snaps = append(snaps, snap)
		}
		final := state.Graph().EdgeList()
		sort.Slice(final, func(i, j int) bool {
			if final[i].Src != final[j].Src {
				return final[i].Src < final[j].Src
			}
			return final[i].Dst < final[j].Dst
		})
		var sb strings.Builder
		for _, e := range final {
			fmt.Fprintf(&sb, "%d-%d;", e.Src, e.Dst)
		}
		return snaps, sb.String()
	}

	serialSnaps, serialEdges := run(-1, 0)
	engSnaps, engEdges := run(3, 0)
	if serialEdges != engEdges {
		t.Fatalf("final edge lists differ: the forced proposal sequence diverged")
	}
	for i := range serialSnaps {
		diffMaps(t, i, engSnaps[i], serialSnaps[i])
	}
}
