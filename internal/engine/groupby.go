package engine

import (
	"wpinq/internal/incremental"
	"wpinq/internal/weighted"
)

// GroupByNode is the output of GroupBy: a key-partitioned sharding of
// incremental.GroupByNode. The exchange routes each difference by the
// hash of its record's key, so a key's entire group lives on one shard
// and prefix re-derivation stays shard-local.
type GroupByNode[T comparable, K comparable, R comparable] struct {
	Stream[weighted.Grouped[K, R]]
	in    *port[T]
	r     routed[T]
	feeds []shardFeed[T]
	subs  []*incremental.GroupByNode[T, K, R]
	out   *outBuffers[weighted.Grouped[K, R]]
	apply func(s int) // per-shard round body, built once
	gate  txnGate
}

// onTxn fans a transaction event into every shard's sub-node and
// forwards it downstream.
func (n *GroupByNode[T, K, R]) onTxn(op incremental.TxnOp) {
	if !n.gate.Enter(op) {
		return
	}
	fanTxn(n.feeds, op)
	n.emitTxn(op)
}

// GroupBy groups records by key and re-reduces weight-ordered prefixes
// (paper Section 2.5). key and reduce must be pure: shards invoke them
// concurrently.
func GroupBy[T comparable, K comparable, R comparable](
	src Source[T], key func(T) K, reduce func([]T) R,
) *GroupByNode[T, K, R] {
	e := src.engine()
	n := &GroupByNode[T, K, R]{
		Stream: Stream[weighted.Grouped[K, R]]{e: e},
		in:     src.newPort(),
		feeds:  make([]shardFeed[T], e.shards),
		subs:   make([]*incremental.GroupByNode[T, K, R], e.shards),
		out:    newOutBuffers[weighted.Grouped[K, R]](e.shards),
	}
	for s := range n.subs {
		in := incremental.NewInput[T]()
		n.feeds[s].in = in
		n.subs[s] = incremental.GroupBy(in, key, reduce)
		n.subs[s].Subscribe(n.out.handler(s))
	}
	n.r.init(e, func(x T) int { return shardOf(e, key(x)) })
	n.apply = func(s int) {
		n.out.reset(s)
		n.feeds[s].flush(&n.r, s)
	}
	src.SubscribeTxn(n.onTxn)
	e.register(n)
	return n
}

// StateSize returns the number of records indexed across all groups and
// shards.
func (n *GroupByNode[T, K, R]) StateSize() int {
	total := 0
	for _, sub := range n.subs {
		total += sub.StateSize()
	}
	return total
}

func (n *GroupByNode[T, K, R]) process() {
	batches, total := n.in.drain()
	if total == 0 {
		return
	}
	n.r.route(batches, total)
	n.e.forShards(total, n.apply)
	n.r.done()
	n.out.emit(&n.Stream)
}
