package engine

import (
	"wpinq/internal/incremental"
)

// JoinNode is the output of Join: a key-partitioned sharding of
// incremental.JoinNode, wPINQ's normalized join (paper Section 2.7). The
// exchange routes each left difference by hash of keyA and each right
// difference by hash of keyB, so both sides of any key — and the key's
// group norms, denominators, and outer products — live on one shard.
// Each shard keeps the incremental join's norm-unchanged fast path.
type JoinNode[A, B comparable, K comparable, R comparable] struct {
	Stream[R]
	pa *port[A]
	ra routed[A]
	pb *port[B]
	rb routed[B]

	fa   []shardFeed[A]
	fb   []shardFeed[B]
	subs []*incremental.JoinNode[A, B, K, R]
	out  *outBuffers[R]

	apply func(s int) // per-shard round body, built once
	gate  txnGate
}

// onTxn fans a transaction event into every shard's sub-node — through
// the left side's input only; the sub-node's own gate treats its two
// private inputs as one node — and forwards it downstream.
func (n *JoinNode[A, B, K, R]) onTxn(op incremental.TxnOp) {
	if !n.gate.Enter(op) {
		return
	}
	fanTxn(n.fa, op)
	n.emitTxn(op)
}

// Join builds a sharded incremental join of two difference streams. keyA,
// keyB and reduce must be pure: shards invoke them concurrently.
func Join[A, B comparable, K comparable, R comparable](
	a Source[A], b Source[B],
	keyA func(A) K, keyB func(B) K,
	reduce func(A, B) R,
) *JoinNode[A, B, K, R] {
	e := sameEngine(a, b)
	n := &JoinNode[A, B, K, R]{
		Stream: Stream[R]{e: e},
		pa:     a.newPort(),
		pb:     b.newPort(),
		fa:     make([]shardFeed[A], e.shards),
		fb:     make([]shardFeed[B], e.shards),
		subs:   make([]*incremental.JoinNode[A, B, K, R], e.shards),
		out:    newOutBuffers[R](e.shards),
	}
	for s := range n.subs {
		ia, ib := incremental.NewInput[A](), incremental.NewInput[B]()
		n.fa[s].in, n.fb[s].in = ia, ib
		n.subs[s] = incremental.Join(ia, ib, keyA, keyB, reduce)
		n.subs[s].Subscribe(n.out.handler(s))
	}
	n.ra.init(e, func(x A) int { return shardOf(e, keyA(x)) })
	n.rb.init(e, func(y B) int { return shardOf(e, keyB(y)) })
	n.apply = func(s int) {
		n.out.reset(s)
		n.fa[s].flush(&n.ra, s)
		n.fb[s].flush(&n.rb, s)
	}
	a.SubscribeTxn(n.onTxn)
	b.SubscribeTxn(n.onTxn)
	e.register(n)
	return n
}

// SetFastPath toggles the norm-unchanged optimization on every shard
// (default on). Results are identical either way.
func (n *JoinNode[A, B, K, R]) SetFastPath(on bool) {
	for _, sub := range n.subs {
		sub.SetFastPath(on)
	}
}

// FastKeys returns the number of key updates resolved via the fast path,
// summed over shards.
func (n *JoinNode[A, B, K, R]) FastKeys() int64 {
	var total int64
	for _, sub := range n.subs {
		total += sub.FastKeys()
	}
	return total
}

// SlowKeys returns the number of key updates that required rescaling,
// summed over shards.
func (n *JoinNode[A, B, K, R]) SlowKeys() int64 {
	var total int64
	for _, sub := range n.subs {
		total += sub.SlowKeys()
	}
	return total
}

// StateSize returns the number of records indexed across both sides, all
// keys, and all shards: the node's memory footprint in records.
func (n *JoinNode[A, B, K, R]) StateSize() int {
	total := 0
	for _, sub := range n.subs {
		total += sub.StateSize()
	}
	return total
}

func (n *JoinNode[A, B, K, R]) process() {
	ba, ta := n.pa.drain()
	bb, tb := n.pb.drain()
	total := ta + tb
	if total == 0 {
		return
	}
	n.ra.route(ba, ta)
	n.rb.route(bb, tb)
	n.e.forShards(total, n.apply)
	n.ra.done()
	n.rb.done()
	n.out.emit(&n.Stream)
}
