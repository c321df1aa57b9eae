package incremental

import "wpinq/internal/weighted"

// Transactional propagation: the propose -> score -> commit/abort
// protocol MCMC uses to stop paying a second full propagation for every
// rejected proposal.
//
// A transaction brackets one or more speculative pushes. Between
// Input.Begin and Input.Commit/Input.Abort, every stateful operator and
// sink buffers the pre-image of each piece of state it overwrites — a
// (record, old weight) undo entry per first touch, in mutation order —
// instead of forgetting it. Commit discards the logs (the speculative
// propagation is already the truth); Abort replays them last-in-first-out,
// restoring bit-identical state in O(touched keys) without pushing the
// inverse differences back through the graph.
//
// Control events travel the same dataflow edges as difference batches: a
// node receives Begin/Commit/Abort from each upstream it subscribes to,
// deduplicates redundant deliveries (diamond topologies deliver an event
// once per incoming edge) with a txnGate, applies the event to its own
// state, and forwards it downstream. The propagation is synchronous and
// carries no data, so its cost is one virtual call per graph edge.
//
// Two invariants make Abort trace-faithful (see DESIGN.md "Transactional
// scoring"):
//
//   - Speculative propagation performs bit-identical arithmetic to an
//     ordinary push: undo logging only observes writes, it never changes
//     them, so an accepted (committed) proposal leaves exactly the state
//     an untracked push would have.
//   - Abort restores the exact pre-image bytes of every touched key —
//     stateMap slice order included, because future emission order (and
//     with it every downstream float accumulation) depends on it — with
//     one deliberate exception: noisy-count observations drawn for
//     records first materialized during the transaction are kept, along
//     with their |m(x)| contribution to the sink's L1. The memoized-noise
//     semantics of wPINQ are monotone (a measurement, once consulted, is
//     released), and the pre-transaction inverse-push rejection path kept
//     them too.
type TxnOp uint8

const (
	// TxnBegin starts a transaction: stateful nodes begin logging
	// pre-images of the state they overwrite.
	TxnBegin TxnOp = iota
	// TxnCommit keeps the speculative propagation and discards the logs.
	TxnCommit
	// TxnAbort restores every touched key's pre-image from the logs.
	TxnAbort
)

// TxnSource is a difference source that also broadcasts transaction
// control events. Every operator stream in this package and in
// wpinq/internal/engine implements it; a graph whose nodes all implement
// it supports transactional pushes end to end.
type TxnSource interface {
	// SubscribeTxn registers a control-event handler. Like Subscribe,
	// registration must complete before the first push.
	SubscribeTxn(f func(TxnOp))
}

// forwardTxn subscribes f to src's control events when src broadcasts
// them. Sources outside this package (and outside wpinq/internal/engine)
// may not; their downstream nodes then never see transactions, which is
// safe only if no transaction is ever begun on that graph.
func forwardTxn[T comparable](src Source[T], f func(TxnOp)) {
	if ts, ok := src.(TxnSource); ok {
		ts.SubscribeTxn(f)
	}
}

// TxnGate deduplicates transaction events for nodes with multiple paths
// from the root (diamond topologies, binary operators on overlapping
// subgraphs): the first delivery of Begin opens the gate, the first
// delivery of Commit/Abort closes it, and every redundant delivery is
// dropped so events cannot multiply along parallel paths. Exported so
// the sharded executor's nodes gate with the identical semantics.
type TxnGate struct {
	in bool
}

// Enter reports whether the event should be processed and forwarded.
func (g *TxnGate) Enter(op TxnOp) bool {
	if op == TxnBegin {
		if g.in {
			return false
		}
		g.in = true
		return true
	}
	if !g.in {
		return false
	}
	g.in = false
	return true
}

// Active reports whether a transaction is open at this node.
func (g *TxnGate) Active() bool { return g.in }

// stateUndoKind tags one stateMap undo-log entry.
type stateUndoKind uint8

const (
	undoUpdate stateUndoKind = iota // weight overwritten in place
	undoInsert                      // record appended
	undoDelete                      // record swap-deleted
)

// stateUndo is one logged stateMap mutation: enough to restore the exact
// pre-image — weights, slice order, position index, and norm — when
// replayed last-in-first-out.
type stateUndo[T comparable] struct {
	kind    stateUndoKind
	i       int     // slot the mutation touched (update, delete)
	x       T       // deleted record (delete only)
	oldW    float64 // pre-image weight (update, delete)
	oldNorm float64 // pre-image norm
}

// beginLog starts logging mutations. Idempotent within a transaction;
// callers use the logging flag to register the map as touched exactly
// once.
func (m *stateMap[T]) beginLog() {
	m.logging = true
	if m.undo == nil {
		// Pre-size the first log so a typical transaction's handful of
		// entries costs one allocation, not a 1-2-4-8 growth ladder.
		m.undo = make([]stateUndo[T], 0, 8)
	}
}

// commitLog discards the log and stops logging.
func (m *stateMap[T]) commitLog() {
	m.undo = m.undo[:0]
	m.logging = false
}

// abortLog replays the log last-in-first-out, restoring the exact
// pre-transaction state: every weight, the record slice order (so future
// emission order is unchanged), the position index, and the norm.
func (m *stateMap[T]) abortLog() {
	for k := len(m.undo) - 1; k >= 0; k-- {
		u := m.undo[k]
		switch u.kind {
		case undoUpdate:
			m.ws[u.i] = u.oldW
		case undoInsert:
			last := len(m.recs) - 1
			if m.pos != nil {
				delete(m.pos, m.recs[last])
			}
			m.recs = m.recs[:last]
			m.ws = m.ws[:last]
		case undoDelete:
			// Invert the swap-delete: the record that was moved into slot
			// u.i goes back to the tail, and u.x returns to u.i. When u.x
			// was the tail itself there is no moved record.
			last := len(m.recs)
			if u.i == last {
				m.recs = append(m.recs, u.x)
				m.ws = append(m.ws, u.oldW)
			} else {
				moved := m.recs[u.i]
				m.recs = append(m.recs, moved)
				m.ws = append(m.ws, m.ws[u.i])
				if m.pos != nil {
					m.pos[moved] = last
				}
				m.recs[u.i] = u.x
				m.ws[u.i] = u.oldW
			}
			if m.pos != nil {
				m.pos[u.x] = u.i
			}
		}
		m.norm = u.oldNorm
	}
	m.undo = m.undo[:0]
	m.logging = false
}

// touchedGroup records one group stateMap first touched during a
// transaction, for the keyed operators (GroupBy, Join) whose state is a
// dynamic map of groups. created marks groups that did not exist at
// TxnBegin: Abort deletes them from the map after their (all-insert)
// logs are unwound.
type touchedGroup[K comparable, T comparable] struct {
	k       K
	g       *stateMap[T]
	created bool
}

// CollectorUndo is the first-touch undo log shared by the materializing
// collectors (Collector here, engine.Collector per shard): Observe records a record's pre-transaction
// weight once (before the collector overwrites it), Abort restores the
// dataset from the log, and Reset clears the log at commit. The sharded
// executor keeps one per state shard so speculative rounds log without
// cross-shard races.
type CollectorUndo[T comparable] struct {
	seen map[T]struct{}
	undo []collectorUndo[T]
}

// collectorUndo is one record's pre-transaction weight (0 when absent).
type collectorUndo[T comparable] struct {
	x    T
	oldW float64
}

// Observe logs x's current weight in d, once per transaction.
func (u *CollectorUndo[T]) Observe(x T, d *weighted.Dataset[T]) {
	if u.seen == nil {
		u.seen = make(map[T]struct{})
	}
	if _, ok := u.seen[x]; ok {
		return
	}
	u.seen[x] = struct{}{}
	u.undo = append(u.undo, collectorUndo[T]{x: x, oldW: d.Weight(x)})
}

// Abort restores every observed record's pre-transaction weight in d
// and clears the log.
func (u *CollectorUndo[T]) Abort(d *weighted.Dataset[T]) {
	for _, e := range u.undo {
		if e.oldW == 0 {
			d.Remove(e.x)
		} else {
			d.Set(e.x, e.oldW)
		}
	}
	u.Reset()
}

// Reset discards the log, keeping capacity for the next transaction.
func (u *CollectorUndo[T]) Reset() {
	clear(u.seen)
	u.undo = u.undo[:0]
}
