package engine

import "wpinq/internal/incremental"

// Transaction control events (incremental.TxnOp) traverse the executor's
// node graph: each node receives an event from every upstream edge,
// deduplicates redundant deliveries, applies the event to its own state,
// and forwards it downstream. A stateful engine node's "own state" is
// its per-shard incremental sub-nodes, so applying an event means fanning
// it into every shard's private input — the sub-node then runs its own
// undo-log machinery. Events carry no
// data and run serially on the scheduling goroutine; their cost is one
// virtual call per graph edge plus O(touched keys) on abort.

// txnGate is the shared event-dedup gate (see incremental.TxnGate).
type txnGate = incremental.TxnGate

// fanTxn forwards a transaction event into every shard's private
// sub-node input.
func fanTxn[T comparable](feeds []shardFeed[T], op incremental.TxnOp) {
	for i := range feeds {
		feeds[i].in.Txn(op)
	}
}
