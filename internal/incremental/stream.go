// Package incremental implements wPINQ's incremental operator kernels
// (paper Section 4.3 and Appendix B) and the scoring sinks that consume
// their output.
//
// A kernel is one stateful operator — Join (with its norm-unchanged fast
// path), GroupBy, Shave, Union/Intersect — that maintains the indexed
// state it needs to translate input weight differences (Delta values)
// into output differences, so re-evaluating a query after a small change
// (one MCMC step) costs only the propagation of the change, not a
// from-scratch evaluation. Kernels are single-threaded and fed through a
// private Input; wpinq/internal/engine instantiates one kernel per shard
// of every stateful operator and does all routing, batching and
// scheduling between them. Pipelines are built on the engine; this
// package holds no multi-hop dataflow of its own.
//
// Every kernel implements exactly the semantics of the corresponding
// reference transformation in wpinq/internal/weighted; the equivalence is
// enforced by property tests that drive both with random update
// sequences.
//
// The terminal consumers — Collect, NewNoisyCountSink and the Scorer that
// aggregates sinks — attach to any Source, including every engine
// stream.
//
// Pushes may be transactional: Input.Begin marks subsequent pushes
// speculative (stateful nodes log pre-images of overwritten state), and
// Input.Commit/Input.Abort resolve them — Abort restoring bit-identical
// state in O(touched keys) without a second propagation. See txn.go.
package incremental

import (
	"math"

	"wpinq/internal/weighted"
)

// Delta is one weighted difference: Record's weight changes by Weight.
type Delta[T comparable] struct {
	Record T
	Weight float64
}

// Handler consumes a batch of differences. The batch slice is owned by the
// emitter: handlers must not retain or mutate it.
type Handler[T comparable] func(batch []Delta[T])

// Source is anything that emits difference batches of type T. All operator
// nodes and Input implement Source for their output type.
type Source[T comparable] interface {
	Subscribe(h Handler[T])
}

// Stream is an embeddable broadcaster of difference batches. Operator nodes
// embed Stream to implement Source (and TxnSource).
type Stream[T comparable] struct {
	handlers []Handler[T]
	txnSubs  []func(TxnOp)
}

// Subscribe registers a downstream handler. Subscription order is the
// delivery order. Subscriptions must complete before the first push.
func (s *Stream[T]) Subscribe(h Handler[T]) {
	s.handlers = append(s.handlers, h)
}

// SubscribeTxn registers a downstream transaction-event handler,
// satisfying TxnSource. Like Subscribe, registration must complete before
// the first push.
func (s *Stream[T]) SubscribeTxn(f func(TxnOp)) {
	s.txnSubs = append(s.txnSubs, f)
}

// emitTxn delivers a transaction event to every control subscriber.
func (s *Stream[T]) emitTxn(op TxnOp) {
	for _, f := range s.txnSubs {
		f(op)
	}
}

// emit delivers a batch to every subscriber. Empty batches are dropped.
func (s *Stream[T]) emit(batch []Delta[T]) {
	if len(batch) == 0 {
		return
	}
	for _, h := range s.handlers {
		h(batch)
	}
}

// Input is the root of a dataflow graph: the point where dataset changes
// enter the computation.
type Input[T comparable] struct {
	Stream[T]
	pushes uint64
}

// NewInput returns a new dataflow input.
func NewInput[T comparable]() *Input[T] {
	return &Input[T]{}
}

// Push propagates a batch of differences through the graph synchronously.
// When Push returns, every sink reflects the change.
func (in *Input[T]) Push(batch []Delta[T]) {
	in.pushes++
	in.emit(batch)
}

// Pushes returns the number of Push calls so far: the propagation
// counter. One MCMC proposal costs exactly one propagation under the
// transactional protocol (Begin/Commit/Abort are control events, not
// propagations), where the inverse-push rejection path cost two.
func (in *Input[T]) Pushes() uint64 { return in.pushes }

// Txn broadcasts a transaction control event through the graph. Every
// stateful node applies it to its own state and forwards it downstream;
// the call is synchronous and pushes no data.
func (in *Input[T]) Txn(op TxnOp) { in.emitTxn(op) }

// Begin opens a transaction: pushes until Commit or Abort are
// speculative, with every stateful node logging the pre-image of the
// state it overwrites. Transactions do not nest.
func (in *Input[T]) Begin() { in.Txn(TxnBegin) }

// Commit keeps the speculative pushes and discards the undo logs.
func (in *Input[T]) Commit() { in.Txn(TxnCommit) }

// Abort restores every stateful node and sink to its pre-transaction
// state in O(touched keys), without a second propagation. See the TxnOp
// documentation for the one deliberate exception (memoized noisy-count
// observations are kept).
func (in *Input[T]) Abort() { in.Txn(TxnAbort) }

// PushDataset pushes an entire weighted dataset as one batch: the idiom for
// loading initial data into a freshly built graph. The batch is built in
// PairsSorted order, never map order — a map-ordered bulk load would seed
// every downstream node's floating-point state differently per run,
// silently reintroducing the emission-order nondeterminism the stateful
// operators were built to exclude. The sort is a one-time load cost.
func (in *Input[T]) PushDataset(d *weighted.Dataset[T]) {
	batch := make([]Delta[T], 0, d.Len())
	for _, p := range d.PairsSorted() {
		batch = append(batch, Delta[T]{p.Record, p.Weight})
	}
	in.Push(batch)
}

// Collector is a sink that materializes the current state of a stream as a
// weighted dataset. Used by tests and by callers that need full outputs.
type Collector[T comparable] struct {
	data *weighted.Dataset[T]

	gate TxnGate
	undo CollectorUndo[T]
}

// Collect attaches a new Collector to src.
func Collect[T comparable](src Source[T]) *Collector[T] {
	c := &Collector[T]{data: weighted.New[T]()}
	src.Subscribe(func(batch []Delta[T]) {
		for _, d := range batch {
			if c.gate.Active() {
				c.undo.Observe(d.Record, c.data)
			}
			c.data.Add(d.Record, d.Weight)
		}
	})
	forwardTxn(src, c.onTxn)
	return c
}

func (c *Collector[T]) onTxn(op TxnOp) {
	if !c.gate.Enter(op) {
		return
	}
	switch op {
	case TxnAbort:
		c.undo.Abort(c.data)
	case TxnCommit:
		c.undo.Reset()
	}
}

// Snapshot returns a copy of the collector's current dataset.
func (c *Collector[T]) Snapshot() *weighted.Dataset[T] {
	return c.data.Clone()
}

// Weight returns the current accumulated weight of record x.
func (c *Collector[T]) Weight(x T) float64 { return c.data.Weight(x) }

// Norm returns the current ||Q(A)|| of the collected stream.
func (c *Collector[T]) Norm() float64 { return c.data.Norm() }

// stateMap is the shared mutable-state helper used by stateful operators:
// a record-weight index with Eps cleanup matching weighted.Dataset, plus an
// incrementally maintained norm.
//
// Records are held in a slice with a position index, not a bare map, so
// that each (deletions backfill from the tail) visits records in an order
// that is a pure function of the update history — never of Go's map
// iteration order. Operators that expand or rescale whole groups
// therefore emit deterministically, which is what makes a seeded MCMC
// trace bit-reproducible: the sinks' floating-point score accumulation
// sees the same operand order on every identically-seeded run.
type stateMap[T comparable] struct {
	// pos is nil until the map grows past posThreshold records; below
	// that, lookups linear-scan recs. Most groups are keyed by a vertex
	// and hold O(degree) records — or are join-key singletons — so the
	// common case never allocates the map at all. Once built, pos is
	// maintained forever (inserts, deletes, abort replay), so a lookup
	// path switch can never observe a stale index.
	pos  map[T]int
	recs []T
	ws   []float64
	norm float64

	// Transactional undo log (see txn.go): while logging, apply records
	// the pre-image of every mutation so abortLog can restore the exact
	// prior state — including slice order — last-in-first-out.
	logging bool
	undo    []stateUndo[T]
}

// posThreshold is the record count past which a stateMap builds its
// position index. Below it a lookup scans recs — at most posThreshold
// comparisons against (typically packed-integer) records, cheaper than
// one map probe plus the map's allocation.
const posThreshold = 16

func newStateMap[T comparable]() *stateMap[T] {
	return &stateMap[T]{}
}

// index locates record x, via pos when built, else by scanning recs.
func (m *stateMap[T]) index(x T) (int, bool) {
	if m.pos != nil {
		i, ok := m.pos[x]
		return i, ok
	}
	for i, r := range m.recs {
		if r == x {
			return i, true
		}
	}
	return 0, false
}

// apply adds delta to record x and returns (old, new) weights. Weights with
// magnitude below weighted.Eps collapse to exactly zero, keeping the state
// identical to the reference engine's.
func (m *stateMap[T]) apply(x T, delta float64) (oldW, newW float64) {
	i, ok := m.index(x)
	if ok {
		oldW = m.ws[i]
	}
	newW = oldW + delta
	switch {
	case math.Abs(newW) < weighted.Eps:
		newW = 0
		if ok {
			if m.logging {
				m.undo = append(m.undo, stateUndo[T]{kind: undoDelete, i: i, x: x, oldW: oldW, oldNorm: m.norm})
			}
			last := len(m.recs) - 1
			moved := m.recs[last]
			m.recs[i], m.ws[i] = moved, m.ws[last]
			m.recs = m.recs[:last]
			m.ws = m.ws[:last]
			if m.pos != nil {
				m.pos[moved] = i
				delete(m.pos, x) // after pos[moved]: moved may be x itself
			}
		}
	case ok:
		if m.logging {
			m.undo = append(m.undo, stateUndo[T]{kind: undoUpdate, i: i, oldW: oldW, oldNorm: m.norm})
		}
		m.ws[i] = newW
	default:
		if m.logging {
			m.undo = append(m.undo, stateUndo[T]{kind: undoInsert, oldNorm: m.norm})
		}
		if m.pos != nil {
			m.pos[x] = len(m.recs)
		}
		m.recs = append(m.recs, x)
		m.ws = append(m.ws, newW)
		if m.pos == nil && len(m.recs) > posThreshold {
			m.pos = make(map[T]int, 2*posThreshold)
			for j, r := range m.recs {
				m.pos[r] = j
			}
		}
	}
	m.norm += math.Abs(newW) - math.Abs(oldW)
	return oldW, newW
}

// recycle resets an emptied state map to its freshly-constructed state
// while keeping allocated capacity, so statePool can reuse it. Only empty
// maps are recycled (pos, when built, has no entries once recs is empty),
// which makes a recycled map indistinguishable from a new one except for
// spare capacity — a kept-but-empty pos only changes lookup strategy,
// never results: norm is forced to exactly zero because a drained group
// can carry ±1e-17 of float dust, and a fresh map's norm is bit-exact 0 —
// trace bit-identity requires the zeroing, not just "small".
func (m *stateMap[T]) recycle() {
	m.recs = m.recs[:0]
	m.ws = m.ws[:0]
	m.norm = 0
	m.logging = false
	m.undo = m.undo[:0]
}

func (m *stateMap[T]) weight(x T) float64 {
	if i, ok := m.index(x); ok {
		return m.ws[i]
	}
	return 0
}

// len returns the number of records with non-zero weight.
func (m *stateMap[T]) len() int { return len(m.recs) }

// each visits every record in the deterministic slice order. f must not
// mutate the state map.
func (m *stateMap[T]) each(f func(x T, w float64)) {
	for i, x := range m.recs {
		f(x, m.ws[i])
	}
}

// orderedDiff is the reusable difference accumulator of the stateful
// operators' batched-update scratch. It mirrors weighted.Dataset's Eps
// cleanup — a record whose running sum collapses below Eps is zeroed
// exactly, and zero records are skipped at flush — but unlike a
// map-backed dataset it flushes in insertion order, so a node's emitted
// batch order is a deterministic function of its input, never of map
// iteration order (see stateMap).
//
// Differences accumulate directly as Delta values, so takeBatch can
// compact non-zero entries in place and hand the node its own backing
// array to emit: zero copies and zero allocations at steady state.
// Handlers must not retain emitted batches (the Handler contract), which
// is what makes lending the internal slice out safe — emission is
// synchronous, and the next push overwrites the array only after every
// downstream handler has returned.
type orderedDiff[T comparable] struct {
	pos map[T]int
	ds  []Delta[T]
}

func newOrderedDiff[T comparable]() *orderedDiff[T] {
	return &orderedDiff[T]{pos: make(map[T]int)}
}

// add accumulates w onto record x.
func (d *orderedDiff[T]) add(x T, w float64) {
	if i, ok := d.pos[x]; ok {
		nw := d.ds[i].Weight + w
		if math.Abs(nw) < weighted.Eps {
			nw = 0
		}
		d.ds[i].Weight = nw
		return
	}
	if math.Abs(w) < weighted.Eps {
		w = 0
	}
	d.pos[x] = len(d.ds)
	d.ds = append(d.ds, Delta[T]{Record: x, Weight: w})
}

// takeBatch compacts the non-zero accumulated differences in place —
// preserving insertion order — clears the index, and returns the batch
// for immediate emission. The index cleanup deletes exactly the keys
// this push inserted (O(accumulated), never O(map buckets)), so a node
// that once saw a bulk load does not pay for its high-water mark on
// every subsequent small push. The accumulator is empty when takeBatch
// returns; the returned slice aliases the internal array and is valid
// until the next add.
func (d *orderedDiff[T]) takeBatch() []Delta[T] {
	w := 0
	for _, e := range d.ds {
		delete(d.pos, e.Record)
		if e.Weight != 0 {
			d.ds[w] = e
			w++
		}
	}
	out := d.ds[:w]
	d.ds = d.ds[:0]
	return out
}
