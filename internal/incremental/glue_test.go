package incremental

import (
	"math"

	"wpinq/internal/weighted"
)

// Linear glue for the kernel tests. Production pipelines chain this
// package's stateful kernels only through wpinq/internal/engine, whose
// stateless operators (engine/stateless.go) sit between them. The tests
// here drive the kernels directly, and realistic shapes (paths → where →
// rotate → intersect, diamonds, deep chains) need linear maps between
// kernels, so this file supplies minimal depth-first ones. The tests
// named after these operators (TestSelectEquivalence, TestTxnSelect, ...)
// pin the glue itself against wpinq/internal/weighted, so every kernel
// test built on it rests on verified plumbing.

// glueNode is a stateless test operator's output. It forwards
// transaction events downstream once each, so diamonds stay exact.
type glueNode[T comparable] struct {
	Stream[T]
	gate TxnGate
}

func (n *glueNode[T]) onTxn(op TxnOp) {
	if n.gate.Enter(op) {
		n.emitTxn(op)
	}
}

// linear builds a glue node applying transform to every input batch.
func linear[T, U comparable](src Source[T], transform func(in []Delta[T], out []Delta[U]) []Delta[U]) *glueNode[U] {
	n := &glueNode[U]{}
	var out []Delta[U]
	src.Subscribe(func(batch []Delta[T]) {
		out = transform(batch, out[:0])
		n.emit(out)
	})
	forwardTxn(src, n.onTxn)
	return n
}

func Select[T, U comparable](src Source[T], f func(T) U) *glueNode[U] {
	return linear(src, func(in []Delta[T], out []Delta[U]) []Delta[U] {
		for _, d := range in {
			out = append(out, Delta[U]{f(d.Record), d.Weight})
		}
		return out
	})
}

func Where[T comparable](src Source[T], p func(T) bool) *glueNode[T] {
	return linear(src, func(in []Delta[T], out []Delta[T]) []Delta[T] {
		for _, d := range in {
			if p(d.Record) {
				out = append(out, d)
			}
		}
		return out
	})
}

// SelectManySlice maps each record to unit-weight outputs rescaled to at
// most unit norm (paper Section 2.4).
func SelectManySlice[T, U comparable](src Source[T], f func(T) []U) *glueNode[U] {
	return linear(src, func(in []Delta[T], out []Delta[U]) []Delta[U] {
		for _, d := range in {
			fx := weighted.FromItems(f(d.Record)...)
			scale := d.Weight / math.Max(1, fx.Norm())
			fx.Range(func(y U, wy float64) { out = append(out, Delta[U]{y, wy * scale}) })
		}
		return out
	})
}

// Concat passes differences through from either input.
func Concat[T comparable](a, b Source[T]) *glueNode[T] {
	n := &glueNode[T]{}
	pass := func(batch []Delta[T]) { n.emit(batch) }
	a.Subscribe(pass)
	b.Subscribe(pass)
	forwardTxn(a, n.onTxn)
	forwardTxn(b, n.onTxn)
	return n
}

// Except passes a's differences through and b's negated.
func Except[T comparable](a, b Source[T]) *glueNode[T] {
	n := &glueNode[T]{}
	a.Subscribe(func(batch []Delta[T]) { n.emit(batch) })
	var out []Delta[T]
	b.Subscribe(func(batch []Delta[T]) {
		out = out[:0]
		for _, d := range batch {
			out = append(out, Delta[T]{d.Record, -d.Weight})
		}
		n.emit(out)
	})
	forwardTxn(a, n.onTxn)
	forwardTxn(b, n.onTxn)
	return n
}
