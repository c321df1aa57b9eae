// Package engine is the round-scheduled dataflow executor that runs every
// wPINQ fit pipeline, over the operator kernels of
// wpinq/internal/incremental.
//
// A query is a graph of operator nodes, each translating input weight
// differences into output differences. The kernels are single-threaded;
// this package schedules them by rounds and runs them at scale by
// partitioning every operator's record space into hash shards (one
// shard, run inline, is the layout Shards -1 selects):
//
//   - Stateless operators (Select, Where, SelectMany, Concat, Except) are
//     embarrassingly parallel: each round's input is cut into contiguous
//     chunks processed concurrently.
//   - Record-partitioned operators (Shave, Union, Intersect) and
//     key-partitioned operators (GroupBy, Join) first run a hash-exchange
//     step that routes every difference to the shard owning its record
//     (respectively its key), then apply each shard's differences to that
//     shard's private operator state in parallel.
//
// Each shard's state is a private instance of the corresponding
// incremental kernel, so the engine inherits the kernels' semantics —
// including the Join fast path — per shard; the executor adds only
// routing, batching, and scheduling. Equivalence tests
// against the from-scratch reference semantics in wpinq/internal/weighted
// pin the combination.
//
// # Execution model
//
// A dataflow graph is built bottom-up against a single Engine: inputs via
// NewInput, operators via the package-level constructors. Construction
// order is topological order, and the engine schedules one round per
// Input.Push: every node, in construction order, drains the batches its
// upstreams emitted earlier in the round, routes them, applies them
// shard-parallel, and emits its per-shard outputs downstream exactly once
// (the batched update path: differences accumulate per shard and flush
// once per round). When Push returns, every subscriber and sink reflects
// the change, exactly like the incremental engine's synchronous Push.
//
// Rounds whose total pending work is below SerialCutoff are applied on
// the calling goroutine (still sharded, no parallel dispatch), so the
// tiny rounds of an MCMC edge swap do not pay goroutine fan-out.
//
// Pushes may be bracketed by Input.Begin and Input.Commit/Input.Abort:
// speculative rounds run identically, but every shard's sub-node logs
// the pre-images of the state it overwrites, and Abort restores them in
// O(touched keys) without another round (see txn.go and the incremental
// package's TxnOp).
//
// # Interoperating with the incremental package
//
// Every engine stream implements incremental.Source, so the incremental
// package's terminal consumers — Collect, NewNoisyCountSink — attach to
// an engine pipeline unchanged. Handlers subscribed this way run serially
// on the scheduling goroutine. The engine's own Collect is the sharded,
// parallel materialization sink.
//
// # Concurrency contract
//
// Building the graph, pushing differences, and reading sinks are
// single-goroutine operations: the engine parallelizes internally but its
// public API is not thread-safe. User functions handed to operators
// (selectors, predicates, keys, reducers) are called concurrently from
// worker goroutines and must be pure.
package engine

import (
	"fmt"
	"hash/maphash"
	"runtime"
	"sync"

	"wpinq/internal/incremental"
)

// MaxShards bounds the shard count: beyond this, exchange scratch and
// goroutine fan-out outweigh any conceivable parallel gain.
const MaxShards = 64

// DefaultSerialCutoff is the round size (total pending differences at a
// node) below which a node applies its shards on the calling goroutine
// instead of dispatching workers. MCMC edge-swap rounds fall far below
// it; bulk loads sit far above.
const DefaultSerialCutoff = 512

// Engine owns a dataflow graph's nodes, its shard layout, and its
// scheduler. Build one Engine per graph.
type Engine struct {
	shards int
	seed   maphash.Seed
	cutoff int
	nodes  []processor
	inRun  bool
}

// processor is one schedulable node: Inputs, operators, and sinks.
type processor interface {
	// process drains the node's pending input, applies it, and emits any
	// output downstream. Called once per round in construction order.
	process()
}

// processSeed is the shard-routing hash seed shared by every Engine in
// the process. A per-engine seed would route the same record to
// different shards in different engine instances, reordering emitted
// batches — and therefore sink floating-point accumulation — between
// otherwise identically-seeded runs. One process-wide seed makes
// repeated runs (and concurrent replica-exchange chains) reproducible
// within a process; across processes the seed differs, so sharded-run
// scores agree only to accumulation tolerance (single-shard engines are
// bit-reproducible across processes too).
//
//wpinq:nondeterministic-ok the one sanctioned random seed: process-wide shard routing, documented above; drawn once at init, never on a scoring path
var processSeed = maphash.MakeSeed()

// New returns an engine that partitions operator state into the given
// number of shards. shards == 0 selects one shard per available CPU
// (GOMAXPROCS) and shards < 0 selects one shard (the -1 of
// synth.Config.Shards); the count is clamped to [1, MaxShards]. A
// one-shard engine runs every round inline on the calling goroutine:
// identical scheduling, no parallel dispatch.
func New(shards int) *Engine {
	switch {
	case shards == 0:
		shards = runtime.GOMAXPROCS(0)
	case shards < 0:
		shards = 1
	}
	if shards > MaxShards {
		shards = MaxShards
	}
	return &Engine{
		shards: shards,
		seed:   processSeed,
		cutoff: DefaultSerialCutoff,
	}
}

// Shards returns the engine's shard count.
func (e *Engine) Shards() int { return e.shards }

// SetSerialCutoff overrides DefaultSerialCutoff. A cutoff of 0 forces
// parallel dispatch for every round, however small — useful under the
// race detector; counterproductive in production.
func (e *Engine) SetSerialCutoff(n int) { e.cutoff = n }

// register appends a node to the schedule. Nodes are constructed after
// their upstreams, so registration order is a topological order of the
// dataflow DAG and one scheduling pass per round suffices.
func (e *Engine) register(p processor) { e.nodes = append(e.nodes, p) }

// run executes one round: every node processes once, in topological
// order. Emissions from node i land in the pending ports of nodes > i,
// which the same pass then drains.
func (e *Engine) run() {
	if e.inRun {
		panic("engine: re-entrant Push (subscribed handlers must not push)")
	}
	e.inRun = true
	for _, n := range e.nodes {
		n.process()
	}
	e.inRun = false
}

// shardOf returns the shard owning value x.
func shardOf[T comparable](e *Engine, x T) int {
	if e.shards == 1 {
		return 0
	}
	return int(maphash.Comparable(e.seed, x) % uint64(e.shards))
}

// forN invokes f(0), ..., f(n-1). When the round's work warrants it, the
// calls are spread over up to Shards() worker goroutines; f must
// therefore be safe to run concurrently for distinct arguments. forN
// returns only after every call completes. The inline path allocates
// nothing, so steady-state rounds cost no garbage.
func (e *Engine) forN(work, n int, f func(i int)) {
	workers := min(e.shards, n)
	if workers <= 1 || work <= e.cutoff {
		for i := 0; i < n; i++ {
			f(i)
		}
		return
	}
	parallelFor(workers, n, f)
}

// parallelFor runs f(0), ..., f(n-1) striped over workers goroutines and
// waits for them all.
func parallelFor(workers, n int, f func(i int)) {
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += workers {
				f(i)
			}
		}(w)
	}
	wg.Wait()
}

// forShards invokes f once per shard; see forN for the dispatch rules.
func (e *Engine) forShards(work int, f func(s int)) { e.forN(work, e.shards, f) }

// port is one node's pending input from one upstream stream: the batches
// emitted earlier in the current round, awaiting the owner's process
// call. Batches are owned by the emitter and are read-only.
type port[T comparable] struct {
	batches [][]incremental.Delta[T]
	total   int
}

func (p *port[T]) add(batch []incremental.Delta[T]) {
	p.batches = append(p.batches, batch)
	p.total += len(batch)
}

// drain returns and clears the pending batches. The returned slices are
// valid until the emitting node's next round.
func (p *port[T]) drain() ([][]incremental.Delta[T], int) {
	b, n := p.batches, p.total
	p.batches, p.total = p.batches[:0], 0
	return b, n
}

// Stream is the output side of a node: it broadcasts emitted batches to
// downstream engine nodes (via their ports) and to handlers subscribed
// through the incremental.Source interface. Operator nodes embed Stream.
type Stream[T comparable] struct {
	e        *Engine
	ports    []*port[T]
	handlers []incremental.Handler[T]
	txnSubs  []func(incremental.TxnOp)
}

// Source is a stream of weight differences of type T produced by a
// sharded dataflow node. Every Source is also an incremental.Source and
// an incremental.TxnSource, so the incremental package's sinks (Collect,
// NewNoisyCountSink) attach to engine pipelines directly and observe
// transactions. Only this package constructs Sources.
type Source[T comparable] interface {
	incremental.Source[T]
	SubscribeTxn(f func(incremental.TxnOp))
	engine() *Engine
	newPort() *port[T]
}

func (s *Stream[T]) engine() *Engine { return s.e }

// newPort registers a downstream engine node's input port.
func (s *Stream[T]) newPort() *port[T] {
	p := &port[T]{}
	s.ports = append(s.ports, p)
	return p
}

// Subscribe registers a serial handler, satisfying incremental.Source.
// The handler runs on the scheduling goroutine once per emitted batch; as
// in the incremental engine, it must not retain or mutate the batch, and
// subscriptions must complete before the first push.
func (s *Stream[T]) Subscribe(h incremental.Handler[T]) {
	s.handlers = append(s.handlers, h)
}

// SubscribeTxn registers a transaction control-event handler, satisfying
// incremental.TxnSource. Handlers run serially on the scheduling
// goroutine, outside any round; registration must complete before the
// first push.
func (s *Stream[T]) SubscribeTxn(f func(incremental.TxnOp)) {
	s.txnSubs = append(s.txnSubs, f)
}

// emitTxn delivers a transaction event to every control subscriber.
func (s *Stream[T]) emitTxn(op incremental.TxnOp) {
	for _, f := range s.txnSubs {
		f(op)
	}
}

// emit broadcasts each non-empty batch downstream. The batches remain
// owned by the caller, which may reuse them after the round completes.
func (s *Stream[T]) emit(batches [][]incremental.Delta[T]) {
	for _, b := range batches {
		if len(b) == 0 {
			continue
		}
		for _, p := range s.ports {
			p.add(b)
		}
		for _, h := range s.handlers {
			h(b)
		}
	}
}

// emitOne is emit for a single batch.
func (s *Stream[T]) emitOne(batch []incremental.Delta[T]) {
	if len(batch) == 0 {
		return
	}
	for _, p := range s.ports {
		p.add(batch)
	}
	for _, h := range s.handlers {
		h(batch)
	}
}

// sameEngine asserts that two sources belong to the same engine before a
// binary operator bridges them.
func sameEngine[A, B comparable](a Source[A], b Source[B]) *Engine {
	if a.engine() != b.engine() {
		panic(fmt.Sprintf("engine: binary operator across engines (%p vs %p)", a.engine(), b.engine()))
	}
	return a.engine()
}

// splitChunks cuts the concatenation of batches into contiguous
// sub-slices of roughly total/n elements without copying, appending them
// to dst. It yields at least one chunk per non-empty batch, so the chunk
// count can exceed n when the round consists of many small batches.
func splitChunks[T comparable](batches [][]incremental.Delta[T], total, n int, dst [][]incremental.Delta[T]) [][]incremental.Delta[T] {
	if n < 1 {
		n = 1
	}
	target := (total + n - 1) / n
	if target < 1 {
		target = 1
	}
	for _, b := range batches {
		for len(b) > target {
			dst = append(dst, b[:target])
			b = b[target:]
		}
		if len(b) > 0 {
			dst = append(dst, b)
		}
	}
	return dst
}

// maxRetained bounds, in differences, the round-scratch buffers a node
// keeps between rounds of ordinary size. Steady-state rounds (one MCMC
// proposal) stay far below it and reuse their buffers allocation-free.
// A bulk load runs far above it; keeping its high-water buffers would pin
// a copy of the load per buffer for the life of the plan.
const maxRetained = 1 << 14

// retain returns b, holding one round's differences, emptied for reuse.
// A buffer grown past maxRetained is kept only while its rounds stay that
// large: the first round that fits under the bound releases it, so
// pipelines whose every round is large keep reusing their buffers.
func retain[T comparable](b []incremental.Delta[T]) []incremental.Delta[T] {
	if cap(b) > maxRetained && len(b) <= maxRetained {
		return nil
	}
	return b[:0]
}

// routed is the hash-exchange scratch of one stateful-operator input: the
// current round's differences bucketed by owning shard. Partitioning is
// itself parallel — each worker buckets one contiguous chunk — and every
// bucket slice is reused across rounds, so steady-state exchange
// allocates nothing. On a one-shard engine every difference belongs to
// shard 0, so routing aliases the pending batches without copying.
type routed[T comparable] struct {
	e      *Engine
	shard  func(T) int                // owning shard of a difference's record
	chunks [][]incremental.Delta[T]   // contiguous slices of this round's input
	parts  [][][]incremental.Delta[T] // [chunk][shard] buckets
	bucket func(i int)                // forN body partitioning chunk i, built once
}

// init binds the exchange to its engine and shard function. It must be
// called on the routed value in its final location (the bucketing
// closure captures its address).
func (r *routed[T]) init(e *Engine, shard func(T) int) {
	r.e, r.shard = e, shard
	r.bucket = func(i int) {
		buckets := r.parts[i]
		for s := range buckets {
			buckets[s] = buckets[s][:0]
		}
		for _, d := range r.chunks[i] {
			s := r.shard(d.Record)
			buckets[s] = append(buckets[s], d)
		}
	}
}

// route partitions the round's pending batches by owning shard.
func (r *routed[T]) route(batches [][]incremental.Delta[T], total int) {
	if r.e.shards == 1 {
		r.chunks = append(r.chunks[:0], batches...)
		for len(r.parts) < len(r.chunks) {
			r.parts = append(r.parts, make([][]incremental.Delta[T], 1))
		}
		for i, c := range r.chunks {
			r.parts[i][0] = c
		}
		return
	}
	r.chunks = splitChunks(batches, total, r.e.shards, r.chunks[:0])
	for len(r.parts) < len(r.chunks) {
		r.parts = append(r.parts, make([][]incremental.Delta[T], r.e.shards))
	}
	r.e.forN(total, len(r.chunks), r.bucket)
}

// done ends the round: it drops the references to the upstream batches
// and lets retain release buckets grown by an earlier bulk round.
func (r *routed[T]) done() {
	clear(r.chunks)
	for i := range r.chunks {
		for s, b := range r.parts[i] {
			if r.e.shards == 1 {
				r.parts[i][s] = nil
			} else {
				r.parts[i][s] = retain(b)
			}
		}
	}
}

// gather appends shard s's routed differences to dst in arrival order and
// returns the extended slice.
func (r *routed[T]) gather(s int, dst []incremental.Delta[T]) []incremental.Delta[T] {
	for i := range r.chunks {
		dst = append(dst, r.parts[i][s]...)
	}
	return dst
}

// each invokes f for shard s's routed differences in arrival order.
func (r *routed[T]) each(s int, f func(incremental.Delta[T])) {
	for i := range r.chunks {
		for _, d := range r.parts[i][s] {
			f(d)
		}
	}
}
