package bucket

import "tricomm/internal/graph"

// Test oracles: the exact analysis view of §3.2 (buckets, full vertices
// and full buckets).

// Partition groups the vertices of g by bucket index. The returned slice
// has NumBuckets(g.N()) entries; entry i lists the vertices of Bᵢ in
// ascending order.
func Partition(g *graph.Graph) [][]int {
	out := make([][]int, NumBuckets(g.N()))
	for v := 0; v < g.N(); v++ {
		i := Index(g.Degree(v))
		out[i] = append(out[i], v)
	}
	return out
}

// IsFullVertex reports whether v is full in g for farness parameter eps
// (Definition 5): at least an eps/(12·log n) fraction of its incident
// edges form a set of disjoint triangle-vees. The disjoint-vee family is
// the greedy maximal matching graph.DisjointVeeCountAt counts; each vee
// accounts for two incident edges.
func IsFullVertex(g *graph.Graph, v int, eps float64) bool {
	d := g.Degree(v)
	if d == 0 {
		return false
	}
	vees := g.DisjointVeeCountAt(v)
	return float64(2*vees) >= eps/(12*logN(g.N()))*float64(d)
}

// FullVertices returns the set of full vertices of g (Definition 5).
func FullVertices(g *graph.Graph, eps float64) []int {
	var out []int
	for v := 0; v < g.N(); v++ {
		if IsFullVertex(g, v, eps) {
			out = append(out, v)
		}
	}
	return out
}

// VeeMass returns, per bucket, the total number of disjoint triangle-vees
// sourced at the bucket's vertices (the quantity Definition 4 thresholds).
func VeeMass(g *graph.Graph) []float64 {
	out := make([]float64, NumBuckets(g.N()))
	for v := 0; v < g.N(); v++ {
		out[Index(g.Degree(v))] += float64(g.DisjointVeeCountAt(v))
	}
	return out
}

// FullBuckets returns the indices of the full buckets of g (Definition 4):
// buckets whose vertices source at least eps·n·d/(2·log n) disjoint
// triangle-vees, where d is the average degree.
func FullBuckets(g *graph.Graph, eps float64) []int {
	threshold := eps * float64(g.N()) * g.AvgDegree() / (2 * logN(g.N()))
	var out []int
	for i, mass := range VeeMass(g) {
		if mass >= threshold && mass > 0 {
			out = append(out, i)
		}
	}
	return out
}
