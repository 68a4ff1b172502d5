// Package graph provides the undirected-graph substrate for the
// triangle-freeness protocols: a compact adjacency representation,
// triangle counting and search, edge-disjoint packing (the ε-farness
// certificates the paper's analysis relies on), triangle-vee analysis,
// and the workload generators used by the experiments.
//
// Graphs are simple (no self-loops, no parallel edges) over the vertex set
// [0, n). Average degree follows the paper's convention d = 2|E|/n, so the
// total edge count is nd/2 (the paper freely writes "nd edges" up to the
// factor of two; we keep d = 2m/n exact throughout).
//
// Memory layout: a Graph is a CSR (compressed sparse row) core — one flat
// neighbor array plus per-vertex offsets, so neighbor iteration is a
// contiguous scan — plus a flat open-addressing edge index (inherited
// from the Builder's dedup table at Build time) that answers HasEdge in
// one probe. Rows above a degree threshold additionally materialize
// word-packed bitset shadows (internal/bitset) so the triangle kernels
// can intersect dense rows by popcount — see DenseDegreeFloor. Three
// retained arrays plus the optional shadow slab, regardless of n; builder
// endpoint slices and transpose scratch recycle through pools, so
// steady-state construction does not allocate scratch from cold. See
// DESIGN.md ("memory layout") for the full contract.
package graph

import (
	"fmt"
	"math/bits"
	"sync"

	"tricomm/internal/bitset"
	"tricomm/internal/wire"
)

// Edge is re-exported so callers of this package need not import wire for
// the common case.
type Edge = wire.Edge

// Graph is an immutable simple undirected graph in CSR form: row v is
// nbr[off[v]:off[v+1]], sorted ascending. Membership queries go through
// set, a flat open-addressing index over canonical edge keys that the
// Builder hands over at Build time (it already exists for dedup, so the
// graph gets O(1) HasEdge for free). Build one with a Builder or a
// generator. All methods are safe for concurrent use after construction.
type Graph struct {
	n   int
	m   int
	off []int32 // len n+1; row boundaries into nbr
	nbr []int32 // len 2m; concatenated sorted neighbor rows
	set edgeSet // canonical edge keys for O(1) membership

	// Bitset shadows for dense rows: rows with degree ≥ the dense
	// threshold get a word-packed copy of their adjacency in one flat slab,
	// so the triangle kernels can intersect them by popcount instead of by
	// merge. shadowIdx[v] is v's slot in the slab, or -1 for sparse rows;
	// shadowIdx is nil when no row qualifies.
	shadowW   int     // words per shadow row: bitset.Words(n)
	shadowIdx []int32 // len n; slab slot per vertex, -1 = no shadow
	shadow    []uint64
}

// row returns the sorted neighbor row of v.
func (g *Graph) row(v int) []int32 { return g.nbr[g.off[v]:g.off[v+1]] }

// DenseDegreeFloor tunes the dense-row threshold: a row materializes a
// bitset shadow when deg(v) ≥ max(DenseDegreeFloor, n/128). At the floor
// the slab costs at most 16 bytes of shadow per packed adjacency entry;
// the n/128 term keeps huge sparse graphs from shadowing everything.
// Set to a negative value to disable shadows entirely (pure merge-path
// kernels), or to a small positive value to force them in tests. Read at
// Build time only; not intended for concurrent mutation.
var DenseDegreeFloor = 16

// denseThreshold resolves the degree bound above which rows get shadows,
// or -1 when shadows are disabled.
func (g *Graph) denseThreshold() int {
	f := DenseDegreeFloor
	if f < 0 {
		return -1
	}
	t := g.n >> 7
	if t < f {
		t = f
	}
	if t < 1 {
		t = 1 // never shadow isolated vertices
	}
	return t
}

// buildShadows materializes bitset shadows for every dense row. Build
// calls it once; two retained allocations when any row qualifies, none
// otherwise.
func (g *Graph) buildShadows() {
	thr := g.denseThreshold()
	if thr < 0 || g.n == 0 {
		return
	}
	dense := 0
	for v := 0; v < g.n; v++ {
		if g.Degree(v) >= thr {
			dense++
		}
	}
	if dense == 0 {
		return
	}
	w := bitset.Words(g.n)
	g.shadowW = w
	g.shadowIdx = make([]int32, g.n)
	g.shadow = make([]uint64, dense*w)
	slot := 0
	for v := 0; v < g.n; v++ {
		if g.Degree(v) < thr {
			g.shadowIdx[v] = -1
			continue
		}
		g.shadowIdx[v] = int32(slot)
		row := g.shadow[slot*w : (slot+1)*w]
		for _, nb := range g.row(v) {
			bitset.Mark(row, int(nb))
		}
		slot++
	}
}

// shadowRow returns v's bitset shadow, or nil when v is sparse.
func (g *Graph) shadowRow(v int) []uint64 {
	if g.shadowIdx == nil {
		return nil
	}
	s := g.shadowIdx[v]
	if s < 0 {
		return nil
	}
	return g.shadow[int(s)*g.shadowW : (int(s)+1)*g.shadowW]
}

// endpointScratch carries the builder's recyclable endpoint slices
// between Build cycles. Only the slices travel through the pool — never
// the Builder itself, so a caller's stale pointer stays permanently
// frozen (AddEdge after Build panics deterministically) instead of
// aliasing someone else's builder.
type endpointScratch struct{ us, vs []int32 }

var builderPool = sync.Pool{New: func() any { return new(endpointScratch) }}

// NewBuilder returns a Builder for a graph on n vertices, drawing its
// endpoint scratch from the build pool.
func NewBuilder(n int) *Builder {
	if n < 0 {
		panic(fmt.Sprintf("graph: negative vertex count %d", n))
	}
	sc := builderPool.Get().(*endpointScratch)
	return &Builder{n: n, us: sc.us[:0], vs: sc.vs[:0]}
}

// Builder accumulates edges and produces an immutable Graph. Duplicate
// insertions and self-loops are ignored. Builder is not safe for
// concurrent use.
type Builder struct {
	n      int
	frozen bool
	set    edgeSet
	us, vs []int32 // canonical endpoints (us[i] < vs[i]) in insertion order
}

// grow pre-sizes the builder for about m edges.
func (b *Builder) grow(m int) {
	if cap(b.us) < m {
		b.us = append(make([]int32, 0, m), b.us...)
		b.vs = append(make([]int32, 0, m), b.vs...)
	}
	b.set.grow(m)
}

// AddEdge inserts the undirected edge {u, v}. Self-loops and duplicates are
// silently ignored; out-of-range endpoints panic (they indicate a generator
// bug, not a runtime condition).
func (b *Builder) AddEdge(u, v int) {
	if u < 0 || u >= b.n || v < 0 || v >= b.n {
		panic(fmt.Sprintf("graph: edge {%d,%d} out of range [0,%d)", u, v, b.n))
	}
	if b.frozen {
		panic("graph: Builder used after Build")
	}
	if u == v {
		return
	}
	if u > v {
		u, v = v, u
	}
	if !b.set.insert(edgeKey(b.n, u, v)) {
		return
	}
	b.us = append(b.us, int32(u))
	b.vs = append(b.vs, int32(v))
}

// Has reports whether {u,v} has been added.
func (b *Builder) Has(u, v int) bool {
	if b.frozen || u == v || u < 0 || v < 0 || u >= b.n || v >= b.n {
		return false
	}
	return b.set.has(edgeKey(b.n, u, v))
}

// NumEdges reports the number of edges added so far.
func (b *Builder) NumEdges() int { return len(b.us) }

// Build freezes the builder into an immutable Graph and recycles the
// builder's scratch. The builder must not be used afterwards.
//
// Rows come out sorted without any comparison sort: arcs are counting-
// sorted into unsorted rows (grouped by source), then transposed — row v
// receives its neighbors in increasing source order, which for a
// symmetric arc set is exactly the sorted adjacency row. O(n + m), two
// retained allocations.
func (b *Builder) Build() *Graph {
	m := len(b.us)
	n := b.n
	g := &Graph{n: n, m: m, off: make([]int32, n+1), nbr: make([]int32, 2*m)}
	sc := scratchPool.Get().(*buildScratch)
	arc := sc.resize(2*m, n+1)
	// Pass 1: degree counts → row offsets.
	off := g.off
	for i := 0; i < m; i++ {
		off[b.us[i]+1]++
		off[b.vs[i]+1]++
	}
	for v := 0; v < n; v++ {
		off[v+1] += off[v]
	}
	// Pass 2: scatter arcs into rows grouped by source (rows unsorted).
	cur := sc.cur
	copy(cur, off)
	for i := 0; i < m; i++ {
		u, v := b.us[i], b.vs[i]
		arc[cur[u]] = v
		cur[u]++
		arc[cur[v]] = u
		cur[v]++
	}
	// Pass 3: transpose — appending source s to row t for every arc (s,t)
	// in increasing s order leaves every row of nbr sorted.
	copy(cur, off)
	for s := 0; s < n; s++ {
		for _, t := range arc[off[s]:off[s+1]] {
			g.nbr[cur[t]] = int32(s)
			cur[t]++
		}
	}
	scratchPool.Put(sc)
	// The dedup table becomes the graph's membership index; the endpoint
	// slices go back to the pool. The builder itself is left frozen and
	// empty — the caller's pointer can never corrupt a future build.
	g.set = b.set
	b.set = edgeSet{}
	builderPool.Put(&endpointScratch{us: b.us, vs: b.vs})
	b.us, b.vs = nil, nil
	b.frozen = true
	g.buildShadows()
	return g
}

// buildScratch is the reusable arena for Build's temporary arc and cursor
// arrays.
type buildScratch struct {
	arc []int32
	cur []int32
}

func (s *buildScratch) resize(arcs, rows int) []int32 {
	if cap(s.arc) < arcs {
		s.arc = make([]int32, arcs)
	}
	if cap(s.cur) < rows {
		s.cur = make([]int32, rows)
	}
	s.arc = s.arc[:arcs]
	s.cur = s.cur[:rows]
	return s.arc
}

var scratchPool = sync.Pool{New: func() any { return new(buildScratch) }}

// FromEdges builds a graph on n vertices from an edge list.
func FromEdges(n int, edges []Edge) *Graph {
	b := NewBuilder(n)
	b.grow(len(edges))
	for _, e := range edges {
		b.AddEdge(e.U, e.V)
	}
	return b.Build()
}

// edgeKey maps a canonical edge to a unique uint64 key. Keys are ≥ 1
// (u < v forces v ≥ 1), so 0 is free as the edgeSet empty sentinel.
func edgeKey(n, u, v int) uint64 {
	if u > v {
		u, v = v, u
	}
	return uint64(u)*uint64(n) + uint64(v)
}

// edgeSet is an open-addressing hash set of edge keys — the Builder's
// dedup table. It replaces map[uint64]bool on the construction hot path:
// no per-entry allocation, cache-friendly linear probing, and the table is
// reused across Build cycles through the builder pool.
type edgeSet struct {
	tab []uint64 // power-of-two sized; 0 = empty slot
	len int
}

// hash64 is a single-round multiply-xorshift mixer (Fibonacci hashing
// with a finishing fold): cheap enough to vanish next to the table probe,
// strong enough to break up the u·n+v key structure.
func hash64(x uint64) uint64 {
	x *= 0x9e3779b97f4a7c15
	return x ^ (x >> 29)
}

// grow resizes the table to hold at least want keys below ¾ load.
func (s *edgeSet) grow(want int) {
	need := 1 << bits.Len(uint(want+want/2|7))
	if need <= len(s.tab) {
		return
	}
	old := s.tab
	s.tab = make([]uint64, need)
	mask := uint64(need - 1)
	for _, k := range old {
		if k == 0 {
			continue
		}
		i := hash64(k) & mask
		for s.tab[i] != 0 {
			i = (i + 1) & mask
		}
		s.tab[i] = k
	}
}

// insert adds key and reports whether it was absent.
func (s *edgeSet) insert(key uint64) bool {
	if 4*(s.len+1) > 3*len(s.tab) {
		s.grow(s.len + 1)
	}
	mask := uint64(len(s.tab) - 1)
	i := hash64(key) & mask
	for {
		switch s.tab[i] {
		case 0:
			s.tab[i] = key
			s.len++
			return true
		case key:
			return false
		}
		i = (i + 1) & mask
	}
}

func (s *edgeSet) has(key uint64) bool {
	if len(s.tab) == 0 {
		return false
	}
	mask := uint64(len(s.tab) - 1)
	i := hash64(key) & mask
	for {
		switch s.tab[i] {
		case 0:
			return false
		case key:
			return true
		}
		i = (i + 1) & mask
	}
}

// N reports the number of vertices.
func (g *Graph) N() int { return g.n }

// M reports the number of edges.
func (g *Graph) M() int { return g.m }

// AvgDegree reports the average degree d = 2|E|/n.
func (g *Graph) AvgDegree() float64 {
	if g.n == 0 {
		return 0
	}
	return 2 * float64(g.m) / float64(g.n)
}

// Degree reports deg(v).
func (g *Graph) Degree(v int) int { return int(g.off[v+1] - g.off[v]) }

// Neighbors returns the sorted neighbor list of v. The returned slice
// aliases the graph's flat adjacency array; callers must not modify it.
func (g *Graph) Neighbors(v int) []int32 { return g.row(v) }

// HasEdge reports whether {u,v} ∈ E: a single bit test when either
// endpoint has a bitset shadow, one probe into the flat edge index
// otherwise.
func (g *Graph) HasEdge(u, v int) bool {
	if u == v || u < 0 || v < 0 || u >= g.n || v >= g.n {
		return false
	}
	if g.shadowIdx != nil {
		if s := g.shadowIdx[u]; s >= 0 {
			return bitset.Test(g.shadow[int(s)*g.shadowW:], v)
		}
		if s := g.shadowIdx[v]; s >= 0 {
			return bitset.Test(g.shadow[int(s)*g.shadowW:], u)
		}
	}
	return g.set.has(edgeKey(g.n, u, v))
}

// arcIndex returns the position of the directed arc u→v in the flat
// neighbor array, or -1 when {u,v} ∉ E. Arc positions index per-edge
// scratch (see PackTriangles) without any hashing.
func (g *Graph) arcIndex(u, v int) int {
	row := g.row(u)
	t := int32(v)
	lo, hi := 0, len(row)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if row[mid] < t {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(row) && row[lo] == t {
		return int(g.off[u]) + lo
	}
	return -1
}

// Edges returns all edges in canonical sorted order.
func (g *Graph) Edges() []Edge {
	out := make([]Edge, 0, g.m)
	for u := 0; u < g.n; u++ {
		for _, w := range g.row(u) {
			if int(w) > u {
				out = append(out, Edge{U: u, V: int(w)})
			}
		}
	}
	return out
}

// VisitEdges calls fn for every edge in canonical sorted order, stopping
// early if fn returns false.
func (g *Graph) VisitEdges(fn func(Edge) bool) {
	for u := 0; u < g.n; u++ {
		for _, w := range g.row(u) {
			if int(w) > u {
				if !fn(Edge{U: u, V: int(w)}) {
					return
				}
			}
		}
	}
}
