package workload

import (
	"wpinq/internal/core"
	"wpinq/internal/engine"
	"wpinq/internal/graph"
	"wpinq/internal/plan"
	"wpinq/internal/queries"
)

// The built-in workloads: the paper's fit measurements (TbI Section 5.3,
// TbD Section 3.3, JDD Section 3.2) plus two analyses the pre-registry
// architecture could not fit at all — the wedge count (clustering
// denominator) and a motif-by-degree profile (Section 3.5's
// generalization, instantiated on the 3-star).
//
// Each workload is defined exactly once, here. Everything downstream —
// privacy cost accounting, measurement, the canonical serialization
// format, the fit executor, the curator service API, and the CLI flags —
// picks it up by name.
func init() {
	MustRegister(Define[queries.Unit](Workload{
		Name:        "tbi",
		Description: "triangles by intersect: single-record triangle signal (paper Section 5.3)",
		Uses:        4,
	}, Builders[queries.Unit]{
		Query: func(edges *core.Collection[graph.Edge], _ int) *core.Collection[queries.Unit] {
			return queries.TbI(edges)
		},
		Pipeline: func(m *plan.Memo, edges engine.Source[graph.Edge], _ int) engine.Source[queries.Unit] {
			return queries.TbIPipeline(m, edges)
		},
	}))

	MustRegister(Define[queries.DegTriple](Workload{
		Name:        "tbd",
		Description: "triangles by degree: weight per sorted degree triple (paper Section 3.3)",
		Uses:        9,
		Bucketed:    true,
	}, Builders[queries.DegTriple]{
		Query:    queries.TbD,
		Pipeline: queries.TbDPipeline,
	}))

	MustRegister(Define[queries.DegPair](Workload{
		Name:        "jdd",
		Description: "joint degree distribution: weight per directed-edge degree pair (paper Section 3.2)",
		Uses:        4,
	}, Builders[queries.DegPair]{
		Query: func(edges *core.Collection[graph.Edge], _ int) *core.Collection[queries.DegPair] {
			return queries.JDD(edges)
		},
		Pipeline: func(m *plan.Memo, edges engine.Source[graph.Edge], _ int) engine.Source[queries.DegPair] {
			return queries.JDDPipeline(m, edges)
		},
	}))

	MustRegister(Define[queries.Unit](Workload{
		Name:        "wedges",
		Description: "length-two-path count: clustering-coefficient denominator (paper Section 2.7)",
		Uses:        2,
	}, Builders[queries.Unit]{
		Query: func(edges *core.Collection[graph.Edge], _ int) *core.Collection[queries.Unit] {
			return queries.WedgeCount(edges)
		},
		Pipeline: func(m *plan.Memo, edges engine.Source[graph.Edge], _ int) engine.Source[queries.Unit] {
			return queries.WedgeCountPipeline(m, edges)
		},
	}))

	// star4-by-degree instantiates the generic motif-by-degree plan on
	// the 3-star: the weighted prevalence of hubs-with-three-leaves,
	// broken down by the (bucketed) degrees of the four vertices. Its
	// builders run the same compiled join plan as every other pattern,
	// so registering another motif workload is a Define call away.
	MustRegister(Define[queries.DegProfile](Workload{
		Name:        "star4-by-degree",
		Description: "3-star motif prevalence by sorted degree profile (paper Section 3.5)",
		Uses:        queries.MotifByDegreeUses(queries.StarPattern4),
		Bucketed:    true,
	}, Builders[queries.DegProfile]{
		Query: func(edges *core.Collection[graph.Edge], bucket int) *core.Collection[queries.DegProfile] {
			return mustPlan(queries.MotifByDegree(edges, queries.StarPattern4, bucket))
		},
		Pipeline: func(m *plan.Memo, edges engine.Source[graph.Edge], bucket int) engine.Source[queries.DegProfile] {
			return mustPlan(queries.MotifByDegreePipeline(m, edges, queries.StarPattern4, bucket))
		},
	}))
}

// mustPlan unwraps motif builders' error return: the built-in patterns
// are static and validated, so compilation cannot fail.
func mustPlan[S any](s S, err error) S {
	if err != nil {
		panic(err)
	}
	return s
}
