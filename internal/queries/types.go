// Package queries implements the paper's graph analyses (Sections 3 and 5)
// as wPINQ programs: degree CCDF and sequence, joint degree distribution
// (JDD), triangles by degree (TbD, with bucketing), squares by degree
// (SbD), and triangles by intersect (TbI).
//
// Each analysis exists in two equivalent forms:
//
//   - a one-shot form over core.Collection, used to take the actual
//     differentially-private measurements of a protected graph, and
//   - an incremental pipeline over the round-scheduled dataflow executor
//     (wpinq/internal/engine), used by MCMC to score synthetic graphs
//     against those measurements (Section 4.3). The fit workloads'
//     pipelines (fused.go) request shared fragments through a plan.Memo;
//     the rest are plain builders (pipelines.go).
//
// All forms share record types and are proven equivalent by tests.
//
// All queries consume the symmetric directed edge dataset produced by
// graph.SymmetricEdges: both (a,b) and (b,a) at weight 1.0. Privacy costs
// are stated in that model, matching Section 5 of the paper (TbI = 4 eps,
// TbD = 9 eps, JDD = 4 eps, SbD = 12 eps).
package queries

import (
	"sort"

	"wpinq/internal/graph"
)

// Path is a length-two path (a, b, c) through the graph.
type Path struct {
	A, B, C graph.Node
}

// Rotate returns (b, c, a), the rotation used to align the three views of
// a triangle (Section 3.3).
func (p Path) Rotate() Path { return Path{p.B, p.C, p.A} }

// Path3 is a length-three path (a, b, c, d).
type Path3 struct {
	A, B, C, D graph.Node
}

// Rotate2 returns (c, d, a, b), the double rotation used by SbD.
func (p Path3) Rotate2() Path3 { return Path3{p.C, p.D, p.A, p.B} }

// PathDeg pairs a length-two path with one vertex degree (whose vertex it
// refers to depends on pipeline position; see Section 3.3).
type PathDeg struct {
	Path Path
	Deg  int
}

// PathDeg2 pairs a path with two degrees (intermediate TbD record).
type PathDeg2 struct {
	Path   Path
	D1, D2 int
}

// Path3Deg2 pairs a length-three path with the degrees of its two middle
// vertices (intermediate SbD record).
type Path3Deg2 struct {
	Path   Path3
	DB, DC int
}

// Path3Deg4 carries all four degrees of a candidate square.
type Path3Deg4 struct {
	Path           Path3
	DA, DB, DC, DD int
}

// DegTriple is a sorted triple of (possibly bucketed) vertex degrees: the
// TbD output record.
type DegTriple [3]int

// SortTriple returns the triple in non-decreasing order, coalescing the six
// permutations of a triangle's degree observations.
func SortTriple(a, b, c int) DegTriple {
	t := DegTriple{a, b, c}
	sort.Ints(t[:])
	return t
}

// DegQuad is a sorted quadruple of vertex degrees: the SbD output record.
type DegQuad [4]int

// SortQuad returns the quadruple in non-decreasing order.
func SortQuad(a, b, c, d int) DegQuad {
	q := DegQuad{a, b, c, d}
	sort.Ints(q[:])
	return q
}

// DegPair is an ordered pair of endpoint degrees: the JDD output record.
type DegPair struct {
	DA, DB int
}

// EdgeDeg pairs an edge with its source vertex's degree (JDD intermediate).
type EdgeDeg struct {
	Edge graph.Edge
	Deg  int
}

// Unit is the single-record type used by whole-dataset counts (TbI's
// "triangle!" record and the node-count release).
type Unit struct{}

// TbDWeight returns the weight each triangle contributes to its sorted
// degree triple, per rotation (paper eq. 4): 1 / (2(da^2 + db^2 + dc^2)).
// A triangle contributes via all six (rotation, reflection) observations,
// for a total of 3/(da^2+db^2+dc^2) on the sorted triple.
func TbDWeight(da, db, dc int) float64 {
	return 1.0 / (2.0 * float64(da*da+db*db+dc*dc))
}

// TbDTotalWeight returns the total weight a triangle adds to its sorted
// degree triple: 6 observations x TbDWeight.
func TbDTotalWeight(da, db, dc int) float64 {
	return 6 * TbDWeight(da, db, dc)
}

// JDDWeight returns the weight of the (da, db) record contributed by one
// directed edge (paper eq. 3): 1 / (2 + 2da + 2db).
func JDDWeight(da, db int) float64 {
	return 1.0 / (2.0 + 2.0*float64(da) + 2.0*float64(db))
}

// SbDWeight returns the weight of each square observation (paper eq. 6):
// 1 / (2(da^2(dd-1) + dd^2(da-1) + db^2(dc-1) + dc^2(db-1))).
func SbDWeight(da, db, dc, dd int) float64 {
	s := float64(da*da)*float64(dd-1) +
		float64(dd*dd)*float64(da-1) +
		float64(db*db)*float64(dc-1) +
		float64(dc*dc)*float64(db-1)
	return 1.0 / (2.0 * s)
}

// TbISignal returns the exact total weight the TbI query assigns a graph
// (paper eq. 8): for each triangle (a,b,c),
// min(1/da,1/db) + min(1/da,1/dc) + min(1/db,1/dc).
func TbISignal(g *graph.Graph) float64 {
	var total float64
	for _, tri := range triangleList(g) {
		da := float64(g.Degree(tri[0]))
		db := float64(g.Degree(tri[1]))
		dc := float64(g.Degree(tri[2]))
		total += minf(1/da, 1/db) + minf(1/da, 1/dc) + minf(1/db, 1/dc)
	}
	return total
}

func minf(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

// triangleList enumerates each triangle once as an ordered vertex triple.
func triangleList(g *graph.Graph) [][3]graph.Node {
	var out [][3]graph.Node
	for _, e := range g.EdgeList() {
		u, v := e.Src, e.Dst
		g.Neighbors(u, func(w graph.Node) {
			if w > v && g.HasEdge(v, w) {
				out = append(out, [3]graph.Node{u, v, w})
			}
		})
	}
	return out
}
