package workload

import (
	"wpinq/internal/engine"
	"wpinq/internal/graph"
	"wpinq/internal/incremental"
	"wpinq/internal/obs"
	"wpinq/internal/weighted"
)

// Plan-root metrics, labeled by executor layout ("serial" for one
// shard run inline, "sharded" otherwise). The root is the right tap:
// the engine internally re-pushes each batch once per shard feed, so
// instrumenting the executor's own Push would count implementation
// fan-out, not dataflow input. Pushes,
// batch sizes, and transaction outcomes are recorded per root delivery
// — one counter bump and one histogram observation per MCMC proposal.
var (
	planPushes = obs.Default.CounterVec("wpinq_plan_pushes_total",
		"Edge-difference batches pushed into plan roots.", "executor")
	planBatchSize = obs.Default.HistogramVec("wpinq_plan_push_batch_size",
		"Edge-difference records per plan-root push (deltas, or dataset size for bulk loads).",
		obs.SizeBuckets(24), "executor")
	planTxn = obs.Default.CounterVec("wpinq_plan_txn_total",
		"Plan-root transaction control events.", "executor", "op")
)

// executorLabel names a plan's executor layout for the metric labels.
func executorLabel(e *engine.Engine) string {
	if e.Shards() == 1 {
		return "serial"
	}
	return "sharded"
}

// obsInput decorates a plan's root input with metrics. It forwards the
// input's full surface, so plans keep satisfying mcmc.TxnInput (the
// transactional scoring protocol engages exactly as before) and tests
// that read Pushes() through the plan input still see the executor's
// own counter.
type obsInput struct {
	in     *engine.Input[graph.Edge]
	push   obs.Counter
	batch  obs.Histogram
	begin  obs.Counter
	commit obs.Counter
	abort  obs.Counter
}

func newObsInput(in *engine.Input[graph.Edge], executor string) *obsInput {
	return &obsInput{
		in:     in,
		push:   planPushes.With(executor),
		batch:  planBatchSize.With(executor),
		begin:  planTxn.With(executor, "begin"),
		commit: planTxn.With(executor, "commit"),
		abort:  planTxn.With(executor, "abort"),
	}
}

func (o *obsInput) Push(batch []incremental.Delta[graph.Edge]) {
	o.push.Inc()
	o.batch.Observe(float64(len(batch)))
	o.in.Push(batch)
}

func (o *obsInput) PushDataset(d *weighted.Dataset[graph.Edge]) {
	o.push.Inc()
	o.batch.Observe(float64(d.Len()))
	o.in.PushDataset(d)
}

func (o *obsInput) Begin()  { o.begin.Inc(); o.in.Begin() }
func (o *obsInput) Commit() { o.commit.Inc(); o.in.Commit() }
func (o *obsInput) Abort()  { o.abort.Inc(); o.in.Abort() }

// Pushes reports the underlying executor input's delivery counter.
func (o *obsInput) Pushes() uint64 { return o.in.Pushes() }
