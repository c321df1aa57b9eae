package queries

import (
	"fmt"
	"sync"

	"wpinq/internal/graph"
	"wpinq/internal/obs"
)

// Packed record encodings for the hot pipeline interiors. The dataflow
// engines key their state maps and hash exchanges on the record types
// flowing through them; packing the graph-shaped intermediates (edges,
// length-two paths, degree pairs) into single uint64 words shrinks that
// state and hits the runtime's fast fixed-size map variants. Packing is
// confined to pipeline interiors: every public builder still accepts
// graph.Edge differences and emits the decoded record types. Shared
// fragments stay packed across their boundaries, so fragment keys and
// the fused DAG shape are those of the decoded plan.
//
// Packing cannot perturb results or trace determinism: it is an
// injective re-encoding applied to records only — weights never pass
// through it, grouping classes are preserved (equal records stay equal,
// distinct stay distinct), and every ordering the operators rely on is
// positional (insertion order), never an order over record values.
//
// Node ids occupy 21 bits, so a length-two path packs into 63. Ids in
// [0, internBase) — every graph the generators produce — encode as
// themselves; rarer ids (negative, or beyond ~2M vertices) go through a
// small interning table occupying the top 2^16 codes.

const (
	nodeBits = 21
	nodeMask = 1<<nodeBits - 1
	// internBase is the first packed code served by the interning table;
	// codes below it are identity-encoded node ids.
	internBase = 1<<nodeBits - 1<<16
)

// internedKeys exposes the interning table's size: zero on every
// generator-produced graph, and bounded by 2^16 before packNode panics.
var internedKeys = obs.Default.Gauge("wpinq_packed_interned_keys",
	"Entries in the packed-record node interning table (node ids outside the identity-encoded range).")

// interner maps out-of-range node ids to packed codes and back. Pack and
// unpack run inside operator closures, which the sharded engine may
// execute concurrently, hence the lock; the identity fast path in
// packNode/unpackNode never takes it.
var interner = struct {
	sync.Mutex
	fwd map[graph.Node]uint64
	rev []graph.Node
}{fwd: make(map[graph.Node]uint64)}

// packNode encodes a node id into 21 bits.
func packNode(n graph.Node) uint64 {
	if n >= 0 && uint64(n) < internBase {
		return uint64(n)
	}
	interner.Lock()
	defer interner.Unlock()
	if c, ok := interner.fwd[n]; ok {
		return c
	}
	if len(interner.rev) >= 1<<16 {
		panic("queries: packed-node interning table full (more than 65536 node ids outside [0, 2031616))")
	}
	c := internBase + uint64(len(interner.rev))
	interner.fwd[n] = c
	interner.rev = append(interner.rev, n)
	internedKeys.Set(float64(len(interner.rev)))
	return c
}

// unpackNode is packNode's inverse.
func unpackNode(c uint64) graph.Node {
	if c < internBase {
		return graph.Node(c)
	}
	interner.Lock()
	defer interner.Unlock()
	return interner.rev[c-internBase]
}

// packDeg encodes a (possibly bucketed) degree into 21 bits. Degrees are
// bounded by the vertex count, which the node encoding already caps.
func packDeg(d int) uint64 {
	if d < 0 || d > nodeMask {
		panic(fmt.Sprintf("queries: degree %d out of packed range", d))
	}
	return uint64(d)
}

// PEdge is a directed edge packed as src<<21 | dst.
type PEdge uint64

func packEdge(e graph.Edge) PEdge {
	return PEdge(packNode(e.Src)<<nodeBits | packNode(e.Dst))
}

// srcKey and dstKey return the packed endpoints, used as join and group
// keys without decoding.
func (e PEdge) srcKey() uint64 { return uint64(e) >> nodeBits }
func (e PEdge) dstKey() uint64 { return uint64(e) & nodeMask }

// PPath is a length-two path packed as a<<42 | b<<21 | c.
type PPath uint64

// packedPath assembles a path word from three already-packed node
// codes.
//
//wpinq:packed-kernel assembles raw 21-bit codes; every call site passes packNode results or packed accessors, which the analyzer verifies
func packedPath(a, b, c uint64) PPath {
	return PPath(a<<(2*nodeBits) | b<<nodeBits | c)
}

func (p PPath) aKey() uint64 { return uint64(p) >> (2 * nodeBits) }
func (p PPath) bKey() uint64 { return uint64(p) >> nodeBits & nodeMask }
func (p PPath) cKey() uint64 { return uint64(p) & nodeMask }

// rotate returns (b, c, a), mirroring Path.Rotate on the packed form.
func (p PPath) rotate() PPath {
	const lowTwo = 1<<(2*nodeBits) - 1
	return PPath(((uint64(p) & lowTwo) << nodeBits) | (uint64(p) >> (2 * nodeBits)))
}

func (p PPath) unpack() Path {
	return Path{unpackNode(p.aKey()), unpackNode(p.bKey()), unpackNode(p.cKey())}
}

// packPath is unpack's inverse.
func packPath(p Path) PPath {
	return packedPath(packNode(p.A), packNode(p.B), packNode(p.C))
}

// PDeg is a (vertex, degree) pair packed as node<<21 | deg: the record
// of the shared degrees fragment.
type PDeg uint64

// packedDeg assembles a (node, degree) word from an already-packed node
// code; the degree is ranged-checked here via packDeg.
//
//wpinq:packed-kernel assembles a raw 21-bit node code; every call site passes packNode results or packed accessors, which the analyzer verifies
func packedDeg(node uint64, deg int) PDeg {
	return PDeg(node<<nodeBits | packDeg(deg))
}

func (d PDeg) nodeKey() uint64 { return uint64(d) >> nodeBits }
func (d PDeg) deg() int        { return int(uint64(d) & nodeMask) }

// PEdgeDeg is an edge with its source's degree: src<<42 | dst<<21 | deg
// (JDD intermediate).
type PEdgeDeg uint64

func packedEdgeDeg(e PEdge, deg int) PEdgeDeg {
	return PEdgeDeg(uint64(e)<<nodeBits | packDeg(deg))
}

// edgeKey returns the packed (src, dst) pair; reverseKey the packed
// (dst, src) pair. The self-join matching x's edge against y's reversed
// edge runs entirely on these keys.
func (d PEdgeDeg) edgeKey() uint64 { return uint64(d) >> nodeBits }
func (d PEdgeDeg) reverseKey() uint64 {
	return ((uint64(d) >> nodeBits & nodeMask) << nodeBits) | (uint64(d) >> (2 * nodeBits))
}
func (d PEdgeDeg) deg() int { return int(uint64(d) & nodeMask) }

// PPathDeg pairs a packed path with one vertex degree (TbD/SbD
// intermediate; 63 + 21 bits exceed one word, so the degree rides
// alongside).
type PPathDeg struct {
	P   PPath
	Deg int32
}

// PPathDeg2 pairs a packed path with two degrees (TbD intermediate).
type PPathDeg2 struct {
	P      PPath
	D1, D2 int32
}
