// Command perfbench is wpinq's end-to-end benchmark. One run executes one
// workload for a fixed wall-clock budget and prints a human-readable
// report followed, as its last line, by one JSON object:
//
//	{"correct": bool, "attempted": n, "failed": n, "metrics": {name: {"value": v, "unit": u}}}
//
// With -trace 0 the metrics are the end-to-end metrics, measured with no
// tracing. With -trace 1 the run repeats a slice of the same work twice,
// untraced and then traced with spans at every layer boundary, and the
// metrics are the per-layer numbers derived from the spans plus the
// tracing overhead. README.md documents the workloads and metrics.
//
// Usage (from the repository root; run.sh builds and runs this program):
//
//	bash perfbench/run.sh --workload fit-serial --seed 1 --seconds 15 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a user of wpinq sees, reported on every
// workload. An "op" is the workload's unit of work: one MCMC proposal on
// the fits, one Phase 0+1 release on release, and one upload-to-download
// job on daemon.
var endToEnd = []metricDef{
	{"op_p50_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"setup_s", "s"},
	{"heap_mb", "MB"},
	{"allocs_per_op", "count"},
}

// perLayer are the traced run's metrics. A layer a workload bypasses does
// no work there and reports 0.
var perLayer = []metricDef{
	{"op_tail_ms", "ms"},
	{"op_tail_pct", "%"},
	{"op_samples", "count"},
	{"error_rate", "ratio"},
	{"trace.overhead_ratio", "ratio"},
	{"trace.spans", "count"},

	{"mcmc.propose_us", "us"},
	{"mcmc.commit_us", "us"},
	{"mcmc.abort_us", "us"},
	{"mcmc.recompute_ms", "ms"},
	{"mcmc.accept_ratio", "ratio"},
	{"mcmc.invalid_ratio", "ratio"},
	{"mcmc.round_wait_ms", "ms"},
	{"mcmc.swap_accept_ratio", "ratio"},

	{"workload.push_us", "us"},
	{"workload.push_p99_us", "us"},
	{"plan.fragpushes_per_proposal", "count"},
	{"incremental.pool_miss_ratio", "ratio"},
	{"workload.attach_s", "s"},
	{"workload.load_s", "s"},
	{"workload.state_mb", "MB"},

	{"synth.measure_s", "s"},
	{"synth.seed_s", "s"},
	{"synth.reseed_s", "s"},
	{"synth.checkpoint_bytes", "bytes"},
	{"synth.checkpoint_save_ms", "ms"},
	{"synth.reanchor_ratio", "ratio"},
	{"synth.load_measurements_ms", "ms"},

	{"core.measure.tbi_s", "s"},
	{"core.measure.tbd_s", "s"},
	{"core.measure.jdd_s", "s"},
	{"core.measure.wedges_s", "s"},
	{"core.measure.star4-by-degree_s", "s"},
	{"core.measure.seedstats_s", "s"},
	{"core.alloc_mb", "MB"},

	{"service.upload_ms", "ms"},
	{"service.measure_ms", "ms"},
	{"service.submit_ms", "ms"},
	{"service.queue_wait_s", "s"},
	{"service.run_s", "s"},
	{"service.download_ms", "ms"},
	{"service.checkpoints_per_job", "count"},
	{"service.stale_checkpoints", "count"},
	{"service.download_dropped_nodes", "count"},

	{"obs.scrape_ms", "ms"},
	{"obs.series", "count"},
}

// params configures one run. short shrinks every workload to a fixed,
// seconds-scale amount of work for the self-test.
type params struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	short    bool
	workDir  string // room for the daemon's store and the traces
}

// report accumulates one run's outcome.
type report struct {
	attempted int
	failed    int
	values    map[string]float64
	failures  []string
	spans     []span
	notes     []string
}

func newReport() *report { return &report{values: map[string]float64{}} }

// set records a metric value.
func (r *report) set(name string, v float64) { r.values[name] = v }

// ops counts n attempted operations, failed of which failed.
func (r *report) ops(n, failed int) {
	r.attempted += n
	r.failed += failed
}

// check counts one correctness check; a false ok is a failure.
func (r *report) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// note adds a line to the human-readable part of the report.
func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(p params, r *report) error{
	"fit-serial":   func(p params, r *report) error { return runFit(p, fitSerial, r) },
	"fit-replicas": func(p params, r *report) error { return runFit(p, fitReplicas, r) },
	"release":      runRelease,
	"daemon":       runDaemon,
}

func main() {
	var p params
	var trace int
	flag.StringVar(&p.workload, "workload", "", "workload: fit-serial, fit-replicas, release or daemon")
	flag.Int64Var(&p.seed, "seed", 1, "input seed; the same seed gives the same inputs")
	flag.Float64Var(&p.seconds, "seconds", 10, "wall-clock seconds of measured work")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	flag.StringVar(&p.workDir, "work-dir", ".bench_build", "directory for the daemon's store and the traced run's spans")
	flag.Parse()
	p.trace = trace == 1
	if err := run(p, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// run executes one workload and prints its report; the last line is the
// JSON result.
func run(p params, out io.Writer) error {
	r, err := execute(p)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "# %s\n", machine())
	fmt.Fprintf(out, "# workload=%s seed=%d seconds=%g trace=%t\n", p.workload, p.seed, p.seconds, p.trace)
	for _, n := range r.notes {
		fmt.Fprintf(out, "# %s\n", n)
	}
	for _, f := range r.failures {
		fmt.Fprintf(out, "# FAILED CHECK: %s\n", f)
	}
	line, err := r.result(p.trace)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(out, string(line))
	return err
}

// execute runs the workload named by p and returns its filled report.
func execute(p params) (*report, error) {
	runWorkload, ok := workloads[p.workload]
	if !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", p.workload, strings.Join(names, ", "))
	}
	if p.seconds <= 0 {
		return nil, errors.New("-seconds must be positive")
	}
	r := newReport()
	if err := runWorkload(p, r); err != nil {
		return nil, fmt.Errorf("%s: %w", p.workload, err)
	}
	if r.attempted == 0 {
		return nil, fmt.Errorf("%s: no operation attempted", p.workload)
	}
	r.set("error_rate", float64(r.failed)/float64(r.attempted))
	if p.trace {
		r.set("trace.spans", float64(len(r.spans)))
		r.note("self time by span: %s", selfTimeSummary(r.spans))
		path, err := writeSpans(p, r.spans)
		if err != nil {
			return nil, err
		}
		r.note("spans written to %s", path)
	}
	return r, nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// result renders the JSON result line: every end-to-end metric, or with
// traced set every per-layer metric. A missing end-to-end metric is a
// benchmark bug; a missing per-layer metric is a layer the workload
// bypasses.
func (r *report) result(traced bool) ([]byte, error) {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	out := resultLine{
		Correct:   r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		v, ok := r.values[d.name]
		if !ok && !traced {
			return nil, fmt.Errorf("end-to-end metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is not finite", d.name)
		}
		out.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return json.Marshal(out)
}

// machine describes the host the numbers come from. GOMAXPROCS is
// reported separately from nproc because Go 1.24 ignores container CPU
// quotas when sizing it.
func machine() string {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	return fmt.Sprintf("machine: nproc=%d gomaxprocs=%d go=%s cpu=%q", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpu)
}

// counters reads the process-wide heap allocation counters without
// stopping the world.
type counters struct {
	samples []metrics.Sample
}

func newCounters() *counters {
	return &counters{samples: []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/heap/allocs:bytes"},
	}}
}

// read returns the cumulative allocated objects and bytes.
func (c *counters) read() (objects, bytes uint64) {
	metrics.Read(c.samples)
	return c.samples[0].Value.Uint64(), c.samples[1].Value.Uint64()
}

// liveHeapMB collects garbage and returns the live heap in MB.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// sinceS returns the seconds elapsed since t.
func sinceS(t time.Time) float64 { return time.Since(t).Seconds() }

// relClose reports whether a and b agree to rel relative tolerance.
func relClose(a, b, rel float64) bool {
	return math.Abs(a-b) <= rel*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}
