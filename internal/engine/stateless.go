package engine

import (
	"math"

	"wpinq/internal/incremental"
	"wpinq/internal/weighted"
)

// Stateless operators are linear in their input: an input difference maps
// directly to an output difference with no maintained state, so no
// exchange is needed — each round's input is cut into contiguous chunks
// and the chunks are transformed concurrently.

// Node is a stateless operator's output: a stream of differences of type
// T with no state of its own. Transaction events pass through unchanged
// (deduplicated, so diamond topologies do not multiply them).
type Node[T comparable] struct {
	Stream[T]
	run  func()
	gate txnGate
}

func (n *Node[T]) process() { n.run() }

// onTxn forwards transaction events downstream, once each.
func (n *Node[T]) onTxn(op incremental.TxnOp) {
	if n.gate.Enter(op) {
		n.emitTxn(op)
	}
}

// mapped builds the shared chunk-parallel skeleton of Select, Where and
// SelectMany: transform applies one input chunk, appending to a reused
// per-chunk output buffer.
func mapped[T, U comparable](src Source[T], transform func(in []incremental.Delta[T], out []incremental.Delta[U]) []incremental.Delta[U]) *Node[U] {
	e := src.engine()
	in := src.newPort()
	n := &Node[U]{Stream: Stream[U]{e: e}}
	var chunks [][]incremental.Delta[T]
	var outs [][]incremental.Delta[U]
	apply := func(i int) { outs[i] = transform(chunks[i], outs[i][:0]) }
	n.run = func() {
		batches, total := in.drain()
		if total == 0 {
			return
		}
		chunks = splitChunks(batches, total, e.shards, chunks[:0])
		for len(outs) < len(chunks) {
			outs = append(outs, nil)
		}
		e.forN(total, len(chunks), apply)
		n.emit(outs[:len(chunks)])
		clear(chunks)
		for i, b := range outs {
			outs[i] = retain(b)
		}
	}
	src.SubscribeTxn(n.onTxn)
	e.register(n)
	return n
}

// Select applies f to each record, preserving weights. f must be pure: it
// is invoked concurrently across chunks.
func Select[T, U comparable](src Source[T], f func(T) U) *Node[U] {
	return mapped(src, func(in []incremental.Delta[T], out []incremental.Delta[U]) []incremental.Delta[U] {
		for _, d := range in {
			out = append(out, incremental.Delta[U]{Record: f(d.Record), Weight: d.Weight})
		}
		return out
	})
}

// Where filters records by p. p must be pure.
func Where[T comparable](src Source[T], p func(T) bool) *Node[T] {
	return mapped(src, func(in []incremental.Delta[T], out []incremental.Delta[T]) []incremental.Delta[T] {
		for _, d := range in {
			if p(d.Record) {
				out = append(out, d)
			}
		}
		return out
	})
}

// SelectMany maps each record to a weighted dataset rescaled to at most
// unit norm (paper Section 2.4). f must be pure and deterministic: it is
// re-invoked, possibly concurrently, on every difference touching the
// record.
func SelectMany[T, U comparable](src Source[T], f func(T) *weighted.Dataset[U]) *Node[U] {
	return mapped(src, func(in []incremental.Delta[T], out []incremental.Delta[U]) []incremental.Delta[U] {
		for _, d := range in {
			fx := f(d.Record)
			scale := d.Weight / math.Max(1, fx.Norm())
			fx.Range(func(y U, wy float64) {
				out = append(out, incremental.Delta[U]{Record: y, Weight: wy * scale})
			})
		}
		return out
	})
}

// SelectManySlice is SelectMany for unit-weight output lists.
func SelectManySlice[T, U comparable](src Source[T], f func(T) []U) *Node[U] {
	return SelectMany(src, func(x T) *weighted.Dataset[U] { return weighted.FromItems(f(x)...) })
}

// Concat adds two streams: differences pass through from either input.
func Concat[T comparable](a, b Source[T]) *Node[T] {
	e := sameEngine(a, b)
	pa, pb := a.newPort(), b.newPort()
	n := &Node[T]{Stream: Stream[T]{e: e}}
	n.run = func() {
		ba, _ := pa.drain()
		bb, _ := pb.drain()
		n.emit(ba)
		n.emit(bb)
	}
	a.SubscribeTxn(n.onTxn)
	b.SubscribeTxn(n.onTxn)
	e.register(n)
	return n
}

// Except subtracts stream b from stream a: differences from b pass
// through negated.
func Except[T comparable](a, b Source[T]) *Node[T] {
	e := sameEngine(a, b)
	pa, pb := a.newPort(), b.newPort()
	n := &Node[T]{Stream: Stream[T]{e: e}}
	var chunks [][]incremental.Delta[T]
	var outs [][]incremental.Delta[T]
	negate := func(i int) {
		out := outs[i][:0]
		for _, d := range chunks[i] {
			out = append(out, incremental.Delta[T]{Record: d.Record, Weight: -d.Weight})
		}
		outs[i] = out
	}
	n.run = func() {
		ba, _ := pa.drain()
		n.emit(ba)
		bb, total := pb.drain()
		if total == 0 {
			return
		}
		chunks = splitChunks(bb, total, e.shards, chunks[:0])
		for len(outs) < len(chunks) {
			outs = append(outs, nil)
		}
		e.forN(total, len(chunks), negate)
		n.emit(outs[:len(chunks)])
		clear(chunks)
		for i, b := range outs {
			outs[i] = retain(b)
		}
	}
	a.SubscribeTxn(n.onTxn)
	b.SubscribeTxn(n.onTxn)
	e.register(n)
	return n
}
