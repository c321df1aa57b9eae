package queries

import (
	"wpinq/internal/engine"
	"wpinq/internal/graph"
	"wpinq/internal/weighted"
)

// Incremental pipeline builders: the dataflow shapes of the one-shot
// queries wired over the round-scheduled executor (wpinq/internal/engine).
// Engine streams implement incremental.Source, so the returned sources
// terminate in incremental.NewNoisyCountSink and incremental.Collect —
// or in engine.Collect when the materialized output itself is large
// enough to shard. Interiors run on the packed encodings of packed.go;
// packed uint64 keys also shrink the hash-exchange records between
// shards. The fit workloads' memo-aware builders live in fused.go.

// packEdges re-encodes edge differences for the pipeline interior.
func packEdges(edges engine.Source[graph.Edge]) engine.Source[PEdge] {
	return engine.Select(edges, packEdge)
}

// pathsCore is the length-two-path join over packed edges.
func pathsCore(pe engine.Source[PEdge]) engine.Source[PPath] {
	joined := engine.Join(pe, pe,
		func(e PEdge) uint64 { return e.dstKey() },
		func(e PEdge) uint64 { return e.srcKey() },
		func(x, y PEdge) PPath { return packedPath(x.srcKey(), x.dstKey(), y.dstKey()) })
	return engine.Where[PPath](joined, func(p PPath) bool { return p.aKey() != p.cKey() })
}

// degreesCore is the (optionally bucketed) degree GroupBy over packed
// edges.
func degreesCore(pe engine.Source[PEdge], bucket int) engine.Source[PDeg] {
	grouped := engine.GroupBy(pe,
		func(e PEdge) uint64 { return e.srcKey() },
		func(es []PEdge) int {
			if bucket > 1 {
				return len(es) / bucket
			}
			return len(es)
		})
	return engine.Select(grouped, func(g weighted.Grouped[uint64, int]) PDeg {
		//wpinq:packed-ok g.Key is the GroupBy key produced by e.srcKey(), a packed accessor; the generic Grouped plumbing hides the provenance
		return packedDeg(g.Key, g.Result)
	})
}

// pathDegCore joins each path with its middle vertex's degree.
func pathDegCore(pp engine.Source[PPath], pd engine.Source[PDeg]) engine.Source[PPathDeg] {
	return engine.Join(pp, pd,
		func(p PPath) uint64 { return p.bKey() },
		func(d PDeg) uint64 { return d.nodeKey() },
		func(p PPath, d PDeg) PPathDeg { return PPathDeg{P: p, Deg: int32(d.deg())} })
}

// tbiCore intersects the paths with their rotation (paper Section 5.3).
func tbiCore(pp engine.Source[PPath]) engine.Source[Unit] {
	rotated := engine.Select(pp, func(p PPath) PPath { return p.rotate() })
	triangles := engine.Intersect[PPath](rotated, pp)
	return engine.Select(triangles, func(PPath) Unit { return Unit{} })
}

// tbdCore joins a path-degree stream with its two rotations, yielding
// each triangle's sorted degree triple (paper Section 3.3).
func tbdCore(abc engine.Source[PPathDeg]) engine.Source[DegTriple] {
	bca := engine.Select[PPathDeg](abc, func(x PPathDeg) PPathDeg {
		return PPathDeg{x.P.rotate(), x.Deg}
	})
	cab := engine.Select(bca, func(x PPathDeg) PPathDeg {
		return PPathDeg{x.P.rotate(), x.Deg}
	})
	two := engine.Join[PPathDeg, PPathDeg, PPath, PPathDeg2](abc, bca,
		func(x PPathDeg) PPath { return x.P },
		func(y PPathDeg) PPath { return y.P },
		func(x, y PPathDeg) PPathDeg2 { return PPathDeg2{P: x.P, D1: x.Deg, D2: y.Deg} })
	return engine.Join[PPathDeg2, PPathDeg, PPath, DegTriple](two, cab,
		func(x PPathDeg2) PPath { return x.P },
		func(y PPathDeg) PPath { return y.P },
		func(x PPathDeg2, y PPathDeg) DegTriple { return SortTriple(int(x.D1), int(x.D2), int(y.Deg)) })
}

// jddCore tags each edge with its source degree and self-joins on the
// reversed edge (paper Section 3.2).
func jddCore(pd engine.Source[PDeg], pe engine.Source[PEdge]) engine.Source[DegPair] {
	temp := engine.Join(pd, pe,
		func(d PDeg) uint64 { return d.nodeKey() },
		func(e PEdge) uint64 { return e.srcKey() },
		func(d PDeg, e PEdge) PEdgeDeg { return packedEdgeDeg(e, d.deg()) })
	return engine.Join[PEdgeDeg, PEdgeDeg, uint64, DegPair](temp, temp,
		func(x PEdgeDeg) uint64 { return x.edgeKey() },
		func(y PEdgeDeg) uint64 { return y.reverseKey() },
		func(x, y PEdgeDeg) DegPair { return DegPair{DA: x.deg(), DB: y.deg()} })
}

// PathsPipeline mirrors Paths.
func PathsPipeline(edges engine.Source[graph.Edge]) engine.Source[Path] {
	pp := pathsCore(packEdges(edges))
	return engine.Select(pp, PPath.unpack)
}

// DegreesPipeline mirrors Degrees.
func DegreesPipeline(edges engine.Source[graph.Edge], bucket int) engine.Source[weighted.Grouped[graph.Node, int]] {
	pd := degreesCore(packEdges(edges), bucket)
	return engine.Select(pd, func(d PDeg) weighted.Grouped[graph.Node, int] {
		return weighted.Grouped[graph.Node, int]{Key: unpackNode(d.nodeKey()), Result: d.deg()}
	})
}

// SbDPipeline mirrors SbD.
func SbDPipeline(edges engine.Source[graph.Edge]) engine.Source[DegQuad] {
	paths := PathsPipeline(edges)
	degs := DegreesPipeline(edges, 1)
	abc := engine.Join(paths, degs,
		func(p Path) graph.Node { return p.B },
		func(d weighted.Grouped[graph.Node, int]) graph.Node { return d.Key },
		func(p Path, d weighted.Grouped[graph.Node, int]) PathDeg {
			return PathDeg{Path: p, Deg: d.Result}
		})
	abcd := engine.Join[PathDeg, PathDeg, [2]graph.Node, Path3Deg2](abc, abc,
		func(x PathDeg) [2]graph.Node { return [2]graph.Node{x.Path.B, x.Path.C} },
		func(y PathDeg) [2]graph.Node { return [2]graph.Node{y.Path.A, y.Path.B} },
		func(x, y PathDeg) Path3Deg2 {
			return Path3Deg2{
				Path: Path3{A: x.Path.A, B: x.Path.B, C: x.Path.C, D: y.Path.C},
				DB:   x.Deg, DC: y.Deg,
			}
		})
	filtered := engine.Where[Path3Deg2](abcd, func(p Path3Deg2) bool { return p.Path.A != p.Path.D })
	cdab := engine.Select[Path3Deg2](filtered, func(x Path3Deg2) Path3Deg2 {
		return Path3Deg2{Path: x.Path.Rotate2(), DB: x.DB, DC: x.DC}
	})
	return engine.Join[Path3Deg2, Path3Deg2, Path3, DegQuad](filtered, cdab,
		func(x Path3Deg2) Path3 { return x.Path },
		func(y Path3Deg2) Path3 { return y.Path },
		func(x, y Path3Deg2) DegQuad { return SortQuad(y.DB, x.DB, x.DC, y.DC) })
}

// DegreeCCDFPipeline mirrors DegreeCCDF.
func DegreeCCDFPipeline(edges engine.Source[graph.Edge]) engine.Source[int] {
	names := engine.Select(edges, func(e graph.Edge) graph.Node { return e.Src })
	shaved := engine.ShaveConst[graph.Node](names, 1.0)
	return engine.Select[weighted.Indexed[graph.Node], int](shaved,
		func(ix weighted.Indexed[graph.Node]) int { return ix.Index })
}

// DegreeSequencePipeline mirrors DegreeSequence.
func DegreeSequencePipeline(edges engine.Source[graph.Edge]) engine.Source[int] {
	ccdf := DegreeCCDFPipeline(edges)
	shaved := engine.ShaveConst[int](ccdf, 1.0)
	return engine.Select[weighted.Indexed[int], int](shaved,
		func(ix weighted.Indexed[int]) int { return ix.Index })
}

// MotifPipeline mirrors MotifCount. Cost model: p.Uses() uses of the
// edge input.
func MotifPipeline(edges engine.Source[graph.Edge], p Pattern) (engine.Source[Unit], error) {
	emb, err := embeddings(edges, p)
	if err != nil {
		return nil, err
	}
	return engine.Select[Embedding, Unit](emb, func(Embedding) Unit { return Unit{} }), nil
}

// embeddings compiles the pattern's join plan, producing the stream of
// injective partial embeddings.
func embeddings(edges engine.Source[graph.Edge], p Pattern) (engine.Source[Embedding], error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	first, steps := p.compile()
	var emb engine.Source[Embedding] = engine.Select(edges, func(e graph.Edge) Embedding {
		out := emptyEmbedding()
		out[first[0]] = e.Src
		out[first[1]] = e.Dst
		return out
	})
	for _, s := range steps {
		s := s
		if s.Closing {
			emb = engine.Join[Embedding, graph.Edge, anchorKey, Embedding](emb, edges,
				func(e Embedding) anchorKey { return anchorKey{e[s.U], e[s.V]} },
				func(ed graph.Edge) anchorKey { return anchorKey{ed.Src, ed.Dst} },
				func(e Embedding, _ graph.Edge) Embedding { return e })
			continue
		}
		joined := engine.Join[Embedding, graph.Edge, anchorKey, Embedding](emb, edges,
			func(e Embedding) anchorKey { return anchorKey{e[s.U], -1} },
			func(ed graph.Edge) anchorKey { return anchorKey{ed.Src, -1} },
			func(e Embedding, ed graph.Edge) Embedding {
				e[s.V] = ed.Dst
				return e
			})
		emb = engine.Where[Embedding](joined, injective)
	}
	return emb, nil
}
