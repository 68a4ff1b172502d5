package graph

import (
	"sync/atomic"

	"tricomm/internal/parwork"
)

// This file provides intra-trial parallelism: row-range-partitioned
// variants of the triangle kernels that are bit-identical to the serial
// ones at any worker count. The contract mirrors the PR 2 harness runner
// — work is split into deterministic chunks, workers claim chunks from an
// atomic cursor, and the reduction folds partials in chunk (row) order.
// The fan-out itself now rides on internal/parwork (the shared
// intra-phase work-splitting layer); this file keeps the graph-specific
// arc-balanced partition and the kernel reductions.

// rowChunks partitions the vertex range [0, n) into at most parts
// contiguous row ranges balanced by arc count (row cost in every kernel
// is proportional to its arcs, not its mere presence). Depends only on
// the graph and parts, never on scheduling.
func (g *Graph) rowChunks(parts int) [][2]int {
	if parts < 1 {
		parts = 1
	}
	total := len(g.nbr)
	target := (total + parts - 1) / parts
	if target < 1 {
		target = 1
	}
	chunks := make([][2]int, 0, parts)
	start, arcs := 0, 0
	for v := 0; v < g.n && len(chunks) < parts-1; v++ {
		arcs += int(g.off[v+1] - g.off[v])
		if arcs >= target && v+1 < g.n {
			chunks = append(chunks, [2]int{start, v + 1})
			start, arcs = v+1, 0
		}
	}
	if start < g.n || len(chunks) == 0 {
		chunks = append(chunks, [2]int{start, g.n})
	}
	return chunks
}

// CountTrianglesN counts triangles with up to workers goroutines. The
// result is bit-identical to CountTriangles at any worker count: each
// triangle is attributed to its smallest vertex's chunk, partial counts
// are exact int64s, and the reduction folds them in chunk order.
func (g *Graph) CountTrianglesN(workers int) int64 {
	workers = parwork.Workers(workers)
	if workers <= 1 || g.n == 0 {
		return g.CountTriangles()
	}
	chunks := g.rowChunks(4 * workers)
	partial := make([]int64, len(chunks))
	parwork.Run(workers, len(chunks), func(i int) {
		partial[i] = g.countTrianglesRange(chunks[i][0], chunks[i][1])
	})
	var total int64
	for _, p := range partial {
		total += p
	}
	return total
}

// FindTriangleN finds the same witness FindTriangle would — the
// lexicographically first triangle edge with its smallest apex — using up
// to workers goroutines. Chunks are claimed in ascending row order and
// each records its own first hit; a worker skips any chunk above the
// lowest hit seen so far (nothing below it can change the winner), and
// the final answer is the lowest-index chunk's hit, which is exactly the
// serial scan's first hit.
func (g *Graph) FindTriangleN(workers int) (Triangle, bool) {
	workers = parwork.Workers(workers)
	if workers <= 1 || g.n == 0 {
		return g.FindTriangle()
	}
	chunks := g.rowChunks(4 * workers)
	found := make([]Triangle, len(chunks))
	hit := make([]bool, len(chunks))
	var best atomic.Int64
	best.Store(int64(len(chunks)))
	parwork.Run(workers, len(chunks), func(i int) {
		if int64(i) > best.Load() {
			return // a lower chunk already has a witness
		}
		t, ok := g.findTriangleRange(chunks[i][0], chunks[i][1])
		if !ok {
			return
		}
		found[i], hit[i] = t, true
		for {
			cur := best.Load()
			if int64(i) >= cur || best.CompareAndSwap(cur, int64(i)) {
				return
			}
		}
	})
	for i := range chunks {
		if hit[i] {
			return found[i], true
		}
	}
	return Triangle{}, false
}

// firstArmPairSerialBelow keeps FirstArmPairN serial for small stars,
// where a fan-out costs more than the scan.
const firstArmPairSerialBelow = 32

// FirstArmPairN finds the first adjacent pair among arms — the pair the
// serial double loop `for i { FirstAdjacent(arms[i], arms[i+1:]) }`
// returns: lowest outer index i first, then that row's FirstAdjacent
// order. The outer scan fans across up to workers goroutines with the
// serial-first-hit reduction, so the witness pair is identical at any
// worker count.
func (g *Graph) FirstArmPairN(arms []int, workers int) (u1, u2 int, ok bool) {
	items := len(arms) - 1
	if items <= 0 {
		return 0, 0, false
	}
	probe := func(lo, hi int) (int64, bool) {
		for i := lo; i < hi; i++ {
			if j := g.FirstAdjacent(arms[i], arms[i+1:]); j >= 0 {
				return int64(i)<<32 | int64(i+1+j), true
			}
		}
		return 0, false
	}
	if workers <= 1 || items < firstArmPairSerialBelow {
		if v, hit := probe(0, items); hit {
			return arms[v>>32], arms[v&0xffffffff], true
		}
		return 0, 0, false
	}
	v, hit := parwork.First(workers, items, probe)
	if !hit {
		return 0, 0, false
	}
	return arms[v>>32], arms[v&0xffffffff], true
}

// findTriangleRange is FindTriangle's scan restricted to edges whose
// smaller endpoint lies in [lo, hi): same edge order, same
// smallest-apex witness.
func (g *Graph) findTriangleRange(lo, hi int) (Triangle, bool) {
	for u := lo; u < hi; u++ {
		for _, w := range g.row(u) {
			if int(w) <= u {
				continue
			}
			e := Edge{U: u, V: int(w)}
			if apex, ok := g.HasTriangleOn(e); ok {
				return Triangle{A: e.U, B: e.V, C: apex}.Canon(), true
			}
		}
	}
	return Triangle{}, false
}
