package queries

import (
	"wpinq/internal/core"
	"wpinq/internal/graph"
	"wpinq/internal/weighted"
)

// Motif-by-degree: the full generalization paper Section 3.5 sketches —
// TbD and SbD extended to arbitrary connected patterns. After the motif
// embedding pipeline, the embedding is joined once per pattern vertex with
// the (vertex, degree) dataset, producing a sorted tuple of the (possibly
// bucketed) degrees of the vertices each occurrence is incident on.
//
// As the paper notes for general motifs, occurrences with different local
// structure may carry different weights, so the released histogram is a
// weighted prevalence profile to be interpreted through MCMC rather than
// divided by a single closed form. Presence/absence and relative mass
// remain exact, and the privacy accounting is automatic.

// DegProfile is a sorted tuple of vertex degrees for a motif occurrence;
// slots beyond the pattern's size hold -1.
type DegProfile [MaxPatternNodes]int

// sortProfile canonicalizes the first k slots ascending. It runs once
// per emitted motif difference on the hot path, so it insertion-sorts
// in place inside the fixed-size profile (k <= MaxPatternNodes) rather
// than copying through a heap slice.
func sortProfile(degs []int) DegProfile {
	var p DegProfile
	for i := range p {
		p[i] = -1
	}
	copy(p[:], degs)
	for i := 1; i < len(degs); i++ {
		x := p[i]
		j := i - 1
		for j >= 0 && p[j] > x {
			p[j+1] = p[j]
			j--
		}
		p[j+1] = x
	}
	return p
}

// embDegs threads a partial degree tuple through the per-vertex joins.
type embDegs struct {
	Emb  Embedding
	Degs [MaxPatternNodes]int
}

// MotifByDegreeUses returns the privacy multiplier of MotifByDegree for a
// pattern: one use per pattern edge for the embedding plan, plus one use
// of the edge dataset per pattern vertex for its degree join.
func MotifByDegreeUses(p Pattern) int { return len(p.Edges) + p.K }

// MotifByDegree compiles the pattern and evaluates its degree profile over
// the protected symmetric edge collection: each occurrence contributes its
// (data-dependent) weight to the sorted tuple of its vertices' bucketed
// degrees. Privacy cost: MotifByDegreeUses(p) * eps.
func MotifByDegree(edges *core.Collection[graph.Edge], p Pattern, bucket int) (*core.Collection[DegProfile], error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	first, steps := p.compile()
	emb := core.Select(edges, func(e graph.Edge) Embedding {
		out := emptyEmbedding()
		out[first[0]] = e.Src
		out[first[1]] = e.Dst
		return out
	})
	for _, s := range steps {
		s := s
		if s.Closing {
			emb = core.Join(emb, edges,
				func(e Embedding) anchorKey { return anchorKey{e[s.U], e[s.V]} },
				func(ed graph.Edge) anchorKey { return anchorKey{ed.Src, ed.Dst} },
				func(e Embedding, _ graph.Edge) Embedding { return e })
			continue
		}
		joined := core.Join(emb, edges,
			func(e Embedding) anchorKey { return anchorKey{e[s.U], -1} },
			func(ed graph.Edge) anchorKey { return anchorKey{ed.Src, -1} },
			func(e Embedding, ed graph.Edge) Embedding {
				e[s.V] = ed.Dst
				return e
			})
		emb = core.Where(joined, injective)
	}
	degs := Degrees(edges, bucket)
	cur := core.Select(emb, func(e Embedding) embDegs { return embDegs{Emb: e} })
	for v := 0; v < p.K; v++ {
		v := v
		cur = core.Join(cur, degs,
			func(x embDegs) graph.Node { return x.Emb[v] },
			func(d weighted.Grouped[graph.Node, int]) graph.Node { return d.Key },
			func(x embDegs, d weighted.Grouped[graph.Node, int]) embDegs {
				x.Degs[v] = d.Result
				return x
			})
	}
	k := p.K
	return core.Select(cur, func(x embDegs) DegProfile { return sortProfile(x.Degs[:k]) }), nil
}
