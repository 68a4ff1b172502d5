package graph

import (
	"fmt"
	"math/bits"

	"tricomm/internal/bitset"
)

// Triangle is an unordered vertex triple forming a triangle. The canonical
// form has A < B < C.
type Triangle struct {
	A, B, C int
}

// Canon returns t with vertices sorted ascending.
func (t Triangle) Canon() Triangle {
	a, b, c := t.A, t.B, t.C
	if a > b {
		a, b = b, a
	}
	if b > c {
		b, c = c, b
	}
	if a > b {
		a, b = b, a
	}
	return Triangle{A: a, B: b, C: c}
}

// Edges returns the three edges of the triangle in canonical form.
func (t Triangle) Edges() [3]Edge {
	return [3]Edge{
		Edge{U: t.A, V: t.B}.Canon(),
		Edge{U: t.A, V: t.C}.Canon(),
		Edge{U: t.B, V: t.C}.Canon(),
	}
}

// String implements fmt.Stringer.
func (t Triangle) String() string { return fmt.Sprintf("(%d,%d,%d)", t.A, t.B, t.C) }

// IsTriangle reports whether {u,v,w} forms a triangle in g.
func (g *Graph) IsTriangle(u, v, w int) bool {
	return u != v && v != w && u != w &&
		g.HasEdge(u, v) && g.HasEdge(v, w) && g.HasEdge(u, w)
}

// HasTriangleOn reports whether edge e participates in some triangle, and
// returns a witness apex if so. This is the "triangle edge" notion of
// Definition 3. The witness is always the smallest common neighbor of the
// endpoints, whichever intersection strategy runs: popcount over two
// shadows, bit probes along the sparse side, or a sorted merge.
func (g *Graph) HasTriangleOn(e Edge) (int, bool) {
	su, sv := g.shadowRow(e.U), g.shadowRow(e.V)
	switch {
	case su != nil && sv != nil:
		if w := bitset.FirstIntersect(su, sv); w >= 0 {
			return w, true
		}
		return -1, false
	case su != nil:
		for _, w := range g.row(e.V) {
			if bitset.Test(su, int(w)) {
				return int(w), true
			}
		}
		return -1, false
	case sv != nil:
		for _, w := range g.row(e.U) {
			if bitset.Test(sv, int(w)) {
				return int(w), true
			}
		}
		return -1, false
	}
	a, b := g.row(e.U), g.row(e.V)
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			return int(a[i]), true
		}
	}
	return -1, false
}

// FindTriangle returns some triangle of g, or ok=false if g is
// triangle-free. It runs in O(Σ_e min(deg(u),deg(v))) time via sorted
// adjacency intersection.
func (g *Graph) FindTriangle() (Triangle, bool) {
	var found Triangle
	ok := false
	g.VisitEdges(func(e Edge) bool {
		if w, hit := g.HasTriangleOn(e); hit {
			found = Triangle{A: e.U, B: e.V, C: w}.Canon()
			ok = true
			return false
		}
		return true
	})
	return found, ok
}

// CountTriangles returns the exact number of triangles in g, counting each
// once. It uses the standard degree-ordered enumeration, with popcount
// intersection on dense row pairs.
func (g *Graph) CountTriangles() int64 {
	return g.countTrianglesRange(0, g.n)
}

// countTrianglesRange counts the triangles (u,v,w), u<v<w, whose smallest
// vertex u lies in [lo, hi). Summing disjoint ranges reproduces
// CountTriangles exactly — each triangle is attributed to exactly one u —
// which is what makes the parallel variant bit-identical.
func (g *Graph) countTrianglesRange(lo, hi int) int64 {
	var count int64
	for u := lo; u < hi; u++ {
		au := g.row(u)
		fu := au[upperBound(au, int32(u)):]
		su := g.shadowRow(u)
		for i, v32 := range fu {
			v := int(v32)
			sv := g.shadowRow(v)
			switch {
			case su != nil && sv != nil:
				count += int64(bitset.IntersectCountAbove(su, sv, v))
			case sv != nil:
				// u is the sparse side: probe its forward suffix against v's
				// shadow.
				for _, w := range fu[i+1:] {
					if bitset.Test(sv, int(w)) {
						count++
					}
				}
			case su != nil:
				av := g.row(v)
				for _, w := range av[upperBound(av, v32):] {
					if bitset.Test(su, int(w)) {
						count++
					}
				}
			default:
				av := g.row(v)
				count += intersectCountSorted(fu[i+1:], av[upperBound(av, v32):])
			}
		}
	}
	return count
}

// upperBound returns the first index i with a[i] > x in the sorted slice a.
func upperBound(a []int32, x int32) int {
	lo, hi := 0, len(a)
	for lo < hi {
		mid := (lo + hi) / 2
		if a[mid] <= x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Sparse-sparse intersections gallop instead of merging when one side is
// an order of magnitude longer: walk the short side and binary-search a
// shrinking window of the long side.
const (
	gallopSkew = 16 // length ratio that flips merge → gallop
	gallopMin  = 32 // long side must at least be this long
)

// intersectCountSorted counts common elements of two sorted rows,
// galloping when the lengths are badly skewed.
func intersectCountSorted(a, b []int32) int64 {
	if len(a) > len(b) {
		a, b = b, a
	}
	var count int64
	if len(b) >= gallopMin && len(b) >= gallopSkew*len(a) {
		for _, x := range a {
			j := lowerBound(b, x)
			if j < len(b) && b[j] == x {
				count++
			}
			b = b[j:]
		}
		return count
	}
	p, q := 0, 0
	for p < len(a) && q < len(b) {
		switch {
		case a[p] < b[q]:
			p++
		case a[p] > b[q]:
			q++
		default:
			count++
			p++
			q++
		}
	}
	return count
}

// lowerBound returns the first index i with a[i] >= x in the sorted slice.
func lowerBound(a []int32, x int32) int {
	lo, hi := 0, len(a)
	for lo < hi {
		mid := (lo + hi) / 2
		if a[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// DisjointVeeCountAt reports the size of a maximal set of pairwise
// edge-disjoint triangle-vees with source v, computed greedily. The size
// of any maximal set is at least half the maximum, which suffices
// everywhere the paper uses "a set of disjoint triangle-vees" (its own
// arguments are also greedy/counting arguments).
//
// A triangle-vee (Definition 2) is two edges {v,u} and {v,w} whose far
// endpoints are adjacent. Two vees at the same source are disjoint iff
// they share no incident edge of v, i.e. they form a matching on the
// neighborhood graph H_v = (N(v), {uw : u,w ∈ N(v), uw ∈ E}).
func (g *Graph) DisjointVeeCountAt(v int) int {
	count := 0
	g.disjointVeesAt(v, func(int, int, int) { count++ })
	return count
}

// disjointVeesAt runs the greedy matching on N(v), reporting each matched
// vee. Availability lives in a pooled bitset over the vertex universe,
// seeded with N(v) and only ever shrunk, so the partner search for a
// dense u is one masked word-AND scan (N(u) ∧ avail above u) and for a
// sparse u a walk of u's own short row — never the old O(deg v) rescan
// with a hash probe per candidate.
//
// The matching is unchanged from the pre-bitset greedy: for each u in
// ascending order, the partner is the smallest w > u with w ∈ N(v),
// w ∈ N(u), and w still unmatched — exactly what the old inner scan of
// nbrs[i+1:] selected.
func (g *Graph) disjointVeesAt(v int, emit func(source, left, right int)) {
	nbrs := g.row(v)
	if len(nbrs) < 2 {
		return
	}
	avail := bitset.Get(g.n)
	for _, u := range nbrs {
		avail.Add(int(u))
	}
	for _, u32 := range nbrs {
		u := int(u32)
		if !avail.Has(u) {
			continue
		}
		w := -1
		if su := g.shadowRow(u); su != nil {
			w = firstAvailAbove(su, avail, u)
		} else {
			ru := g.row(u)
			for _, w32 := range ru[upperBound(ru, u32):] {
				if avail.Has(int(w32)) {
					w = int(w32)
					break
				}
			}
		}
		if w >= 0 {
			avail.Remove(u)
			avail.Remove(w)
			emit(v, u, w)
		}
	}
	bitset.Put(avail)
}

// firstAvailAbove returns the smallest key > lo present in both the dense
// shadow row and the availability set, or -1. avail ⊆ N(source) by
// construction, so the AND directly encodes "adjacent to u, still
// unmatched".
func firstAvailAbove(row []uint64, avail *bitset.Set, lo int) int {
	start := lo + 1
	nw := len(row)
	if aw := avail.NumWords(); aw < nw {
		nw = aw
	}
	w := start >> 6
	if w >= nw {
		return -1
	}
	m := row[w] & avail.Word(w) &^ (1<<(uint(start)&63) - 1)
	for {
		if m != 0 {
			return w<<6 + bits.TrailingZeros64(m)
		}
		w++
		if w >= nw {
			return -1
		}
		m = row[w] & avail.Word(w)
	}
}
