package engine

import (
	"wpinq/internal/incremental"
	"wpinq/internal/weighted"
)

// Collector is the sharded materialization sink: it maintains the
// current state of a stream as record-partitioned weighted datasets,
// applied in parallel. For scoring sinks attach
// incremental.NewNoisyCountSink directly to any engine Source — its
// memoized-noise observations are inherently sequential, and MCMC
// scoring rounds are far too small to benefit from sharding.
type Collector[T comparable] struct {
	e      *Engine
	in     *port[T]
	r      routed[T]
	shards []*weighted.Dataset[T]
	apply  func(s int) // per-shard round body, built once

	// Transaction state, sharded like the data so speculative rounds log
	// pre-images without cross-shard races.
	gate txnGate
	txns []incremental.CollectorUndo[T]
}

// Collect attaches a new Collector to src.
func Collect[T comparable](src Source[T]) *Collector[T] {
	e := src.engine()
	c := &Collector[T]{
		e:      e,
		in:     src.newPort(),
		shards: make([]*weighted.Dataset[T], e.shards),
	}
	for s := range c.shards {
		c.shards[s] = weighted.New[T]()
	}
	c.r.init(e, func(x T) int { return shardOf(e, x) })
	c.apply = func(s int) {
		data := c.shards[s]
		logging := c.gate.Active()
		c.r.each(s, func(d incremental.Delta[T]) {
			if logging {
				c.txns[s].Observe(d.Record, data)
			}
			data.Add(d.Record, d.Weight)
		})
	}
	src.SubscribeTxn(c.onTxn)
	e.register(c)
	return c
}

func (c *Collector[T]) process() {
	batches, total := c.in.drain()
	if total == 0 {
		return
	}
	c.r.route(batches, total)
	c.e.forShards(total, c.apply)
	c.r.done()
}

// onTxn applies a transaction event to every shard's dataset. Collectors
// are leaves: there is nothing to forward.
func (c *Collector[T]) onTxn(op incremental.TxnOp) {
	if !c.gate.Enter(op) {
		return
	}
	switch op {
	case incremental.TxnBegin:
		if c.txns == nil {
			c.txns = make([]incremental.CollectorUndo[T], c.e.shards)
		}
	case incremental.TxnAbort:
		for s := range c.txns {
			c.txns[s].Abort(c.shards[s])
		}
	case incremental.TxnCommit:
		for s := range c.txns {
			c.txns[s].Reset()
		}
	}
}

// Snapshot returns a copy of the collector's current dataset, merged
// across shards.
func (c *Collector[T]) Snapshot() *weighted.Dataset[T] {
	n := 0
	for _, d := range c.shards {
		n += d.Len()
	}
	out := weighted.NewSized[T](n)
	for _, d := range c.shards {
		d.Range(func(x T, w float64) { out.Set(x, w) })
	}
	return out
}

// Weight returns the current accumulated weight of record x.
func (c *Collector[T]) Weight(x T) float64 {
	return c.shards[shardOf(c.e, x)].Weight(x)
}

// Norm returns the current ||Q(A)|| of the collected stream.
func (c *Collector[T]) Norm() float64 {
	var n float64
	for _, d := range c.shards {
		n += d.Norm()
	}
	return n
}

// Len returns the number of records with non-zero weight.
func (c *Collector[T]) Len() int {
	n := 0
	for _, d := range c.shards {
		n += d.Len()
	}
	return n
}
