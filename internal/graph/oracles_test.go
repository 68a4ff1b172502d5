package graph

import (
	"math/bits"

	"tricomm/internal/bitset"
)

// Test oracles: reference forms that the kernels and generators are
// checked against.

// DegreeHistogram returns a map from degree to the number of vertices with
// that degree.
func (g *Graph) DegreeHistogram() map[int]int {
	h := make(map[int]int)
	for v := 0; v < g.n; v++ {
		h[g.Degree(v)]++
	}
	return h
}

// ExactTriangleDistance computes, by exhaustive search over removal
// subsets of the triangle edges, the minimum number of edge removals that
// make g triangle-free. It is exponential and intended only for tests on
// tiny graphs (panics if more than 24 edges participate in triangles).
func (g *Graph) ExactTriangleDistance() int {
	tri := g.Triangles(-1)
	if len(tri) == 0 {
		return 0
	}
	// Collect the edges participating in triangles; removals outside this
	// set are never useful. The candidate set is tiny (≤ 24 edges), so a
	// keyed slice with linear lookup replaces the former map[uint64]int.
	var edges []Edge
	indexOf := func(e Edge) int {
		for i, x := range edges {
			if x == e {
				return i
			}
		}
		return -1
	}
	for _, t := range tri {
		for _, e := range t.Edges() {
			if indexOf(e) < 0 {
				edges = append(edges, e)
			}
		}
	}
	if len(edges) > 24 {
		panic("graph: ExactTriangleDistance limited to 24 triangle edges")
	}
	// Each triangle is a 3-bit mask over the candidate edges; a removal set
	// is feasible iff it hits every mask.
	masks := make([]uint32, len(tri))
	for i, t := range tri {
		var m uint32
		for _, e := range t.Edges() {
			m |= 1 << uint(indexOf(e))
		}
		masks[i] = m
	}
	best := len(edges)
	for s := uint32(0); s < 1<<uint(len(edges)); s++ {
		if bits.OnesCount32(s) >= best {
			continue
		}
		ok := true
		for _, m := range masks {
			if s&m == 0 {
				ok = false
				break
			}
		}
		if ok {
			best = bits.OnesCount32(s)
		}
	}
	return best
}

// TriangleEdges returns the set of edges that participate in at least one
// triangle.
func (g *Graph) TriangleEdges() []Edge {
	var out []Edge
	g.VisitEdges(func(e Edge) bool {
		if _, ok := g.HasTriangleOn(e); ok {
			out = append(out, e)
		}
		return true
	})
	return out
}

// Vee is a triangle-vee (Definition 2): two edges {Source,Left} and
// {Source,Right} whose far endpoints are adjacent, so that
// {Left, Right} ∈ E closes a triangle.
type Vee struct {
	Source, Left, Right int
}

// IsVee reports whether v is a triangle-vee in g.
func (g *Graph) IsVee(v Vee) bool {
	return g.HasEdge(v.Source, v.Left) && g.HasEdge(v.Source, v.Right) &&
		g.HasEdge(v.Left, v.Right)
}

// DisjointVeesAt returns the vees whose number DisjointVeeCountAt
// reports.
func (g *Graph) DisjointVeesAt(v int) []Vee {
	var out []Vee
	g.disjointVeesAt(v, func(s, l, r int) {
		out = append(out, Vee{Source: s, Left: l, Right: r})
	})
	return out
}

// DisjointVeeCount returns, for every vertex, the size of a maximal set of
// edge-disjoint triangle-vees sourced at it. The paper's notion of
// "disjoint" across different sources only requires edge-disjointness or
// distinct sources, so summing per-source maximal matchings certifies a
// valid global family.
func (g *Graph) DisjointVeeCount() []int {
	out := make([]int, g.n)
	for v := 0; v < g.n; v++ {
		out[v] = g.DisjointVeeCountAt(v)
	}
	return out
}

// MaxDegree reports the maximum degree over all vertices (0 for an empty
// graph).
func (g *Graph) MaxDegree() int {
	maxd := int32(0)
	for v := 0; v < g.n; v++ {
		if d := g.off[v+1] - g.off[v]; d > maxd {
			maxd = d
		}
	}
	return int(maxd)
}

// Triangles returns up to limit triangles of g in canonical order
// (limit < 0 means all). Intended for tests and small graphs.
func (g *Graph) Triangles(limit int) []Triangle {
	var out []Triangle
	g.visitTriangles(func(t Triangle) bool {
		out = append(out, t)
		return limit < 0 || len(out) < limit
	})
	return out
}

// visitTriangles enumerates each triangle exactly once as (a<b<c) using
// forward adjacency intersection; fn returning false stops enumeration.
func (g *Graph) visitTriangles(fn func(Triangle) bool) {
	g.visitTrianglesRange(0, g.n, fn)
}

// visitTrianglesRange enumerates the triangles whose smallest vertex lies
// in [lo, hi), in canonical (a, b, c) lexicographic order, reporting
// whether enumeration ran to completion. Every strategy — popcount visit,
// bit probes along the sparse side, sorted merge — yields apexes in
// ascending order, so the emission sequence is independent of which rows
// happen to have shadows.
func (g *Graph) visitTrianglesRange(lo, hi int, fn func(Triangle) bool) bool {
	for u := lo; u < hi; u++ {
		au := g.row(u)
		// Find the suffix of au with ids > u.
		fu := au[upperBound(au, int32(u)):]
		su := g.shadowRow(u)
		for i, v32 := range fu {
			v := int(v32)
			sv := g.shadowRow(v)
			// Intersect fu[i+1:] (= N(u) ∩ (v,∞)) with N(v) ∩ (v,∞).
			switch {
			case su != nil && sv != nil:
				if !bitset.IntersectVisitAbove(su, sv, v, func(w int) bool {
					return fn(Triangle{A: u, B: v, C: w})
				}) {
					return false
				}
			case sv != nil:
				for _, w := range fu[i+1:] {
					if bitset.Test(sv, int(w)) {
						if !fn(Triangle{A: u, B: v, C: int(w)}) {
							return false
						}
					}
				}
			case su != nil:
				av := g.row(v)
				for _, w := range av[upperBound(av, v32):] {
					if bitset.Test(su, int(w)) {
						if !fn(Triangle{A: u, B: v, C: int(w)}) {
							return false
						}
					}
				}
			default:
				rest := fu[i+1:]
				av := g.row(v)
				fv := av[upperBound(av, v32):]
				p, q := 0, 0
				for p < len(rest) && q < len(fv) {
					switch {
					case rest[p] < fv[q]:
						p++
					case rest[p] > fv[q]:
						q++
					default:
						if !fn(Triangle{A: u, B: v, C: int(rest[p])}) {
							return false
						}
						p++
						q++
					}
				}
			}
		}
	}
	return true
}
