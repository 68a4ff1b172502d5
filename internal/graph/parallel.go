package graph

import (
	"log/slog"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
)

// This file holds the parallel triangle searches: row-range-partitioned
// variants of CountTriangles and FindTriangle that return the serial
// answers at any width. Work is split into deterministic chunks,
// goroutines started for the call claim chunks from an atomic cursor,
// and the reduction reads the per-chunk results in chunk (row) order.

// workersEnv is the environment variable consulted when a caller passes
// a non-positive width.
const workersEnv = "TRICOMM_INTRA_WORKERS"

// maxWorkers caps the search width, so the chunk table and the
// goroutines a search starts are bounded by a constant, not by the
// request.
const maxWorkers = 64

// envWarned makes the invalid-env warning fire once per process (it is a
// plain flag, not a sync.Once, so tests can reset it).
var envWarned atomic.Bool

// Workers resolves a triangle-search width request: an explicit n > 0
// wins; otherwise TRICOMM_INTRA_WORKERS; otherwise 1; and the result is
// at most 64. The default is deliberately serial: the players of a
// session and the trial pool already own the cores. An unparseable or
// non-positive environment value falls back to 1 with a one-time slog
// warning instead of being silently ignored.
func Workers(n int) int {
	if n <= 0 {
		n = 1
		if s := os.Getenv(workersEnv); s != "" {
			if v, err := strconv.Atoi(s); err == nil && v > 0 {
				n = v
			} else if envWarned.CompareAndSwap(false, true) {
				slog.Warn("invalid intra-worker count in environment; using 1",
					"var", workersEnv, "value", s)
			}
		}
	}
	return min(n, maxWorkers)
}

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

// runChunks calls do(i) once for each i in [0, chunks) on up to workers
// goroutines, the caller among them, which claim chunk indexes from one
// atomic cursor. It starts its goroutines for this call and returns only
// after all of them are done, so none outlives the search. Which
// goroutine runs a chunk depends on scheduling, so do must write only
// chunk-indexed state.
func runChunks(workers, chunks int, do func(chunk int)) {
	var next atomic.Int64
	work := func() {
		for i := int(next.Add(1)) - 1; i < chunks; i = int(next.Add(1)) - 1 {
			do(i)
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < min(workers, chunks); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
}

// CountTrianglesN counts triangles with up to workers goroutines. The
// result is bit-identical to CountTriangles at any worker count: each
// triangle is attributed to its smallest vertex's chunk, partial counts
// are exact int64s, and the reduction folds them in chunk order.
func (g *Graph) CountTrianglesN(workers int) int64 {
	workers = Workers(workers)
	if workers <= 1 || g.n == 0 {
		return g.CountTriangles()
	}
	chunks := g.rowChunks(4 * workers)
	partial := make([]int64, len(chunks))
	runChunks(workers, len(chunks), func(i int) {
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
	workers = Workers(workers)
	if workers <= 1 || g.n == 0 {
		return g.FindTriangle()
	}
	chunks := g.rowChunks(4 * workers)
	found := make([]Triangle, len(chunks))
	hit := make([]bool, len(chunks))
	var best atomic.Int64
	best.Store(int64(len(chunks)))
	runChunks(workers, len(chunks), func(i int) {
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
