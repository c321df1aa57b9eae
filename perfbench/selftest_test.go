package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
)

// countMetrics count work, not time, so they must repeat across two
// short runs with the same seed: exactly, or within rel for allocation
// counts. Every Go map draws its own random hash seed, and the seed moves
// where tables grow, so map-heavy code allocates a little more or less
// from run to run. Under the race detector allocation counts are not
// checked at all.
var countMetrics = []struct {
	workload string
	trace    bool
	metric   string
	rel      float64
}{
	{"fit-serial", false, "allocs_per_op", 0.02},
	{"fit-serial", true, "plan.fragpushes_per_proposal", 0},
	{"fit-replicas", true, "plan.fragpushes_per_proposal", 0},
	{"release", true, "core.alloc_mb", 0.02},
	{"daemon", true, "service.checkpoints_per_job", 0},
}

// runShort runs one workload in short mode and returns its result line.
func runShort(t *testing.T, workload string, trace bool) resultLine {
	t.Helper()
	r, err := execute(params{workload: workload, seed: 1, seconds: 1, trace: trace, short: true, workDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range r.failures {
		t.Errorf("failed check: %s", f)
	}
	b, err := r.result(trace)
	if err != nil {
		t.Fatal(err)
	}
	var out resultLine
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestWorkloadsShort runs every workload, untraced and traced, and checks
// that each passes its checks and prints every named metric with its unit.
func TestWorkloadsShort(t *testing.T) {
	if !testing.Short() {
		t.Skip("run with -short: the full-size workloads are the benchmark itself")
	}
	results := map[string]resultLine{}
	for _, w := range []string{"fit-serial", "fit-replicas", "release", "daemon"} {
		for _, trace := range []bool{false, true} {
			res := runShort(t, w, trace)
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%t: correct=%t attempted=%d failed=%d", w, trace, res.Correct, res.Attempted, res.Failed)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%t: %d metrics, want %d", w, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s trace=%t: metric %s = %+v, want unit %s", w, trace, d.name, m, d.unit)
				}
				if !trace && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w, d.name, m.Value)
				}
			}
			results[key(w, trace)] = res
		}
	}
	for _, c := range countMetrics {
		if c.rel > 0 && raceEnabled {
			continue
		}
		again := runShort(t, c.workload, c.trace)
		a, b := results[key(c.workload, c.trace)].Metrics[c.metric].Value, again.Metrics[c.metric].Value
		if a == 0 || math.Abs(a-b) > c.rel*a {
			t.Errorf("%s %s: %v then %v, want the same nonzero count (within %g)", c.workload, c.metric, a, b, c.rel)
		}
	}
}

func key(workload string, trace bool) string {
	if trace {
		return workload + "/trace"
	}
	return workload
}

// ungated are the workloads BENCHMARK.json leaves out (README.md says
// why).
var ungated = map[string]bool{"fit-replicas": true, "fit-serial": true}

// TestBenchmarkJSONMatches checks that BENCHMARK.json names exactly the
// metrics this program prints, with the same units, and every workload
// but the ungated ones.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bench); err != nil {
		t.Fatal(err)
	}
	gated := map[string]bool{}
	for _, w := range bench.Workloads {
		gated[w.Name] = true
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %s is not a workload of the program", w.Name)
		}
	}
	for name := range workloads {
		if !gated[name] && !ungated[name] {
			t.Errorf("workload %s is missing from BENCHMARK.json", name)
		}
	}
	for _, set := range []struct {
		name string
		json []struct{ Name, Unit string }
		defs []metricDef
	}{{"end_to_end", bench.EndToEnd, endToEnd}, {"per_layer", bench.PerLayer, perLayer}} {
		if len(set.json) != len(set.defs) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program %d", set.name, len(set.json), len(set.defs))
			continue
		}
		for i, d := range set.defs {
			if set.json[i].Name != d.name || set.json[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s/%s, the program %s/%s", set.name, i, set.json[i].Name, set.json[i].Unit, d.name, d.unit)
			}
		}
	}
}
