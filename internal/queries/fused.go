package queries

import (
	"fmt"
	"strings"

	"wpinq/internal/engine"
	"wpinq/internal/graph"
	"wpinq/internal/plan"
)

// The fit workloads' pipeline builders. Every reusable fragment (the
// length-two-path join, the degree GroupBy, the path-degree join, motif
// embedding chains) is requested through a plan.Memo, so pipelines built
// on the same memo share their common prefixes — one fused DAG with
// fan-out at the divergence points instead of N private copies. A
// non-fusing memo (plan.New(false)) builds every request privately, the
// differential baseline; a nil memo builds privately without accounting.
//
// Fragment keys canonicalize every parameter that changes the operator
// subgraph (bucket width, pattern shape); two requests share a fragment
// exactly when their subgraphs are identical.

// fusedBucket canonicalizes the degree bucket width for fragment
// identity: widths <= 1 all leave degrees unbucketed, so they name one
// fragment.
func fusedBucket(bucket int) int {
	if bucket > 1 {
		return bucket
	}
	return 1
}

// Fragment key constructors.
func pathsKey() string             { return "paths" }
func degreesKey(bucket int) string { return fmt.Sprintf("degrees/b=%d", fusedBucket(bucket)) }
func pathDegKey(bucket int) string { return fmt.Sprintf("pathdeg/b=%d", fusedBucket(bucket)) }
func tbdKey(bucket int) string     { return fmt.Sprintf("tbd/b=%d", fusedBucket(bucket)) }
func motifEmbKey(p Pattern) string { return "motif-emb/" + p.fragmentKey() }
func motifDegKey(p Pattern, bucket int) string {
	return fmt.Sprintf("motif-deg/%s/b=%d", p.fragmentKey(), fusedBucket(bucket))
}

// fragmentKey returns the canonical fusion identity of a pattern: the
// vertex count and the edge list in declared order and orientation.
// Edge order is part of the identity because the compiled join plan —
// and with it the data-dependent motif weights — depends on it.
func (p Pattern) fragmentKey() string {
	var b strings.Builder
	fmt.Fprintf(&b, "k%d", p.K)
	for _, e := range p.Edges {
		fmt.Fprintf(&b, ":%d-%d", e[0], e[1])
	}
	return b.String()
}

// Fragments carry the packed interior encodings (packed.go) across
// their boundaries, so a consumer joins a shared fragment without a
// decode-and-re-encode pass; only the workloads' outputs are decoded
// record types.

// pathsFragment is the shared length-two-path fragment.
func pathsFragment(m *plan.Memo, edges engine.Source[graph.Edge]) engine.Source[PPath] {
	n := plan.Node{Key: pathsKey(), Op: "join(edges,edges)+where(a!=c)", Inputs: []string{"edges"}}
	return plan.Shared(m, n, func() engine.Source[PPath] {
		s := pathsCore(packEdges(edges))
		plan.Count[PPath](m, s)
		return s
	})
}

// degreesFragment is the shared (bucketed) degree fragment.
func degreesFragment(m *plan.Memo, edges engine.Source[graph.Edge], bucket int) engine.Source[PDeg] {
	n := plan.Node{Key: degreesKey(bucket), Op: "groupby(src,deg)", Inputs: []string{"edges"}}
	return plan.Shared(m, n, func() engine.Source[PDeg] {
		s := degreesCore(packEdges(edges), bucket)
		plan.Count[PDeg](m, s)
		return s
	})
}

// pathDegFragment joins the shared paths with the shared degrees.
func pathDegFragment(m *plan.Memo, edges engine.Source[graph.Edge], bucket int) engine.Source[PPathDeg] {
	paths := pathsFragment(m, edges)
	degs := degreesFragment(m, edges, bucket)
	n := plan.Node{Key: pathDegKey(bucket), Op: "join(paths,degrees)", Inputs: []string{pathsKey(), degreesKey(bucket)}}
	return plan.Shared(m, n, func() engine.Source[PPathDeg] {
		s := pathDegCore(paths, degs)
		plan.Count[PPathDeg](m, s)
		return s
	})
}

// TbIPipeline is the incremental form of TbI.
func TbIPipeline(m *plan.Memo, edges engine.Source[graph.Edge]) engine.Source[Unit] {
	paths := pathsFragment(m, edges)
	n := plan.Node{Key: "tbi", Op: "rotate+intersect+unit", Inputs: []string{pathsKey()}}
	return plan.Shared(m, n, func() engine.Source[Unit] {
		s := tbiCore(paths)
		plan.Count[Unit](m, s)
		return s
	})
}

// TbDPipeline is the incremental form of TbD.
func TbDPipeline(m *plan.Memo, edges engine.Source[graph.Edge], bucket int) engine.Source[DegTriple] {
	abc := pathDegFragment(m, edges, bucket)
	n := plan.Node{Key: tbdKey(bucket), Op: "rotations+2joins+sorttriple", Inputs: []string{pathDegKey(bucket)}}
	return plan.Shared(m, n, func() engine.Source[DegTriple] {
		s := tbdCore(abc)
		plan.Count[DegTriple](m, s)
		return s
	})
}

// JDDPipeline is the incremental form of JDD.
func JDDPipeline(m *plan.Memo, edges engine.Source[graph.Edge]) engine.Source[DegPair] {
	degs := degreesFragment(m, edges, 1)
	n := plan.Node{Key: "jdd", Op: "join(degrees,edges)+selfjoin", Inputs: []string{degreesKey(1), "edges"}}
	return plan.Shared(m, n, func() engine.Source[DegPair] {
		s := jddCore(degs, packEdges(edges))
		plan.Count[DegPair](m, s)
		return s
	})
}

// WedgeCountPipeline is the incremental form of WedgeCount. Cost model:
// 2 uses of the edge input.
func WedgeCountPipeline(m *plan.Memo, edges engine.Source[graph.Edge]) engine.Source[Unit] {
	paths := pathsFragment(m, edges)
	n := plan.Node{Key: "wedges", Op: "unit", Inputs: []string{pathsKey()}}
	return plan.Shared(m, n, func() engine.Source[Unit] {
		s := engine.Select(paths, func(PPath) Unit { return Unit{} })
		plan.Count[Unit](m, s)
		return s
	})
}

// embeddingsFragment is the shared motif-embedding fragment.
func embeddingsFragment(m *plan.Memo, edges engine.Source[graph.Edge], p Pattern) (engine.Source[Embedding], error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	n := plan.Node{Key: motifEmbKey(p), Op: "embedding-joins", Inputs: []string{"edges"}}
	return plan.Shared(m, n, func() engine.Source[Embedding] {
		emb, err := embeddings(edges, p)
		if err != nil {
			// Validate passed above; embeddings re-validates only.
			panic(err)
		}
		plan.Count[Embedding](m, emb)
		return emb
	}), nil
}

// MotifByDegreePipeline is the incremental form of MotifByDegree. Cost
// model: MotifByDegreeUses(p) uses.
func MotifByDegreePipeline(m *plan.Memo, edges engine.Source[graph.Edge], p Pattern, bucket int) (engine.Source[DegProfile], error) {
	emb, err := embeddingsFragment(m, edges, p)
	if err != nil {
		return nil, err
	}
	degs := degreesFragment(m, edges, bucket)
	n := plan.Node{
		Key:    motifDegKey(p, bucket),
		Op:     "per-vertex degree joins+sortprofile",
		Inputs: []string{motifEmbKey(p), degreesKey(bucket)},
	}
	return plan.Shared(m, n, func() engine.Source[DegProfile] {
		var cur engine.Source[embDegs] = engine.Select[Embedding, embDegs](emb,
			func(e Embedding) embDegs { return embDegs{Emb: e} })
		for v := 0; v < p.K; v++ {
			v := v
			cur = engine.Join[embDegs, PDeg, graph.Node, embDegs](cur, degs,
				func(x embDegs) graph.Node { return x.Emb[v] },
				func(d PDeg) graph.Node { return unpackNode(d.nodeKey()) },
				func(x embDegs, d PDeg) embDegs {
					x.Degs[v] = d.deg()
					return x
				})
		}
		k := p.K
		s := engine.Select[embDegs, DegProfile](cur,
			func(x embDegs) DegProfile { return sortProfile(x.Degs[:k]) })
		plan.Count[DegProfile](m, s)
		return s
	}), nil
}
