package graph

import "tricomm/internal/bitset"

// ProbeCursor amortizes repeated adjacency queries against one source
// row. For a shadowed row every probe is a single bit test in any order;
// for a sparse row the cursor gallops forward through the sorted
// neighbor array, so a batch of non-decreasing probes costs one pass over
// the row instead of one hash or binary search per edge. Zero
// allocations; the cursor is a value type.
type ProbeCursor struct {
	g      *Graph
	u      int
	row    []int32
	shadow []uint64 // nil for sparse rows
	pos    int      // resume point into row for monotone sparse probes
}

// ProbeRow positions a cursor on u's adjacency row.
func (g *Graph) ProbeRow(u int) ProbeCursor {
	if u < 0 || u >= g.n {
		return ProbeCursor{g: g, u: u}
	}
	return ProbeCursor{g: g, u: u, row: g.row(u), shadow: g.shadowRow(u)}
}

// Has reports whether {u, v} ∈ E. Sparse rows require the sequence of
// probed v values to be non-decreasing (the cursor only moves forward);
// shadowed rows accept any order.
func (c *ProbeCursor) Has(v int) bool {
	if v == c.u || v < 0 || c.g == nil || v >= c.g.n {
		return false
	}
	if c.shadow != nil {
		return bitset.Test(c.shadow, v)
	}
	// Gallop forward: double the step until we overshoot, then binary
	// search the bracketed window. A batch of b sorted probes against a
	// row of degree d costs O(b log(d/b) + b) overall.
	t := int32(v)
	row, i := c.row, c.pos
	if i >= len(row) {
		return false
	}
	step := 1
	j := i
	for j < len(row) && row[j] < t {
		i = j + 1
		j += step
		step <<= 1
	}
	if j > len(row) {
		j = len(row)
	}
	// row[i-1] < t ≤ row[j] (when in range); narrow by binary search.
	for i < j {
		mid := int(uint(i+j) >> 1)
		if row[mid] < t {
			i = mid + 1
		} else {
			j = mid
		}
	}
	c.pos = i
	return i < len(row) && row[i] == t
}

// HasEdgeBatch answers membership for a sorted ascending probe list vs
// against source u, writing results into out (len(out) must be ≥
// len(vs)). One cursor pass; no allocations.
func (g *Graph) HasEdgeBatch(u int, vs []int32, out []bool) {
	c := g.ProbeRow(u)
	for i, v := range vs {
		out[i] = c.Has(int(v))
	}
}

// FirstAdjacent returns the index into cands of the first candidate
// adjacent to u, or -1 when none is. Candidates may be in any order; a
// shadowed source row answers each candidate with one bit test, a sparse
// one with one hash probe.
func (g *Graph) FirstAdjacent(u int, cands []int) int {
	if u < 0 || u >= g.n {
		return -1
	}
	if s := g.shadowRow(u); s != nil {
		for i, v := range cands {
			if v != u && v >= 0 && v < g.n && bitset.Test(s, v) {
				return i
			}
		}
		return -1
	}
	for i, v := range cands {
		if g.HasEdge(u, v) {
			return i
		}
	}
	return -1
}

// FirstArmPair finds the first adjacent pair among arms: the lowest
// index i with an arm after it adjacent to arms[i], and the first such
// arm in FirstAdjacent's order.
func (g *Graph) FirstArmPair(arms []int) (u1, u2 int, ok bool) {
	for i := range arms {
		if j := g.FirstAdjacent(arms[i], arms[i+1:]); j >= 0 {
			return arms[i], arms[i+1+j], true
		}
	}
	return 0, 0, false
}
