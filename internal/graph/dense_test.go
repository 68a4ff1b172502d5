package graph

import (
	"math/rand"
	"testing"
)

// withDenseFloor runs fn with DenseDegreeFloor overridden, restoring it
// afterwards. Graphs must be (re)built inside fn: the threshold is read
// at construction time.
func withDenseFloor(t *testing.T, floor int, fn func()) {
	t.Helper()
	old := DenseDegreeFloor
	DenseDegreeFloor = floor
	defer func() { DenseDegreeFloor = old }()
	fn()
}

// rebuild reconstructs g from its edge list under the current threshold.
func rebuild(g *Graph) *Graph { return FromEdges(g.N(), g.Edges()) }

// denseTestGraphs returns a zoo spanning the strategy space: dense ER
// (all rows shadowed at default), sparse ER (none), a star (one huge row
// among degree-1 rows — the skewed sparse/gallop case), complete, a
// certified-far instance, and Behrend (triangle-free).
func denseTestGraphs() map[string]*Graph {
	rng := rand.New(rand.NewSource(9))
	return map[string]*Graph{
		"er-dense":  ErdosRenyi(256, 0.2, rng),
		"er-sparse": ErdosRenyi(256, 0.02, rng),
		"star":      Star(128),
		"complete":  Complete(48),
		"far":       FarWithDegree(FarParams{N: 256, D: 12, Eps: 0.2}, rng).G,
		"behrend":   NewBehrendGraph(27).G,
	}
}

// TestShadowPathEquivalence rebuilds every zoo graph with shadows
// disabled, forced everywhere, and at the default threshold, and demands
// identical results — counts, packings (order included), vee matchings
// (order included), witnesses — across all three.
func TestShadowPathEquivalence(t *testing.T) {
	type snapshot struct {
		count    int64
		tris     []Triangle
		pack     []Triangle
		vees     []int
		veesAt   []Vee
		triangle Triangle
		hasTri   bool
	}
	take := func(g *Graph) snapshot {
		s := snapshot{
			count: g.CountTriangles(),
			tris:  g.Triangles(-1),
			pack:  g.PackTriangles(),
			vees:  g.DisjointVeeCount(),
		}
		for v := 0; v < g.N() && len(s.veesAt) < 64; v++ {
			s.veesAt = append(s.veesAt, g.DisjointVeesAt(v)...)
		}
		s.triangle, s.hasTri = g.FindTriangle()
		return s
	}
	for name, base := range denseTestGraphs() {
		t.Run(name, func(t *testing.T) {
			var snaps [3]snapshot
			for i, floor := range []int{-1, 1, 16} {
				withDenseFloor(t, floor, func() {
					g := rebuild(base)
					if floor == -1 && g.shadowIdx != nil {
						t.Fatal("shadows built while disabled")
					}
					if floor == 1 && g.M() > 0 && g.shadowIdx == nil {
						t.Fatal("no shadows built at floor 1")
					}
					snaps[i] = take(g)
				})
			}
			for i := 1; i < 3; i++ {
				if snaps[i].count != snaps[0].count {
					t.Fatalf("count mismatch: %d vs %d", snaps[i].count, snaps[0].count)
				}
				if len(snaps[i].tris) != len(snaps[0].tris) {
					t.Fatalf("triangle list length mismatch")
				}
				for j := range snaps[i].tris {
					if snaps[i].tris[j] != snaps[0].tris[j] {
						t.Fatalf("triangle order diverges at %d: %v vs %v",
							j, snaps[i].tris[j], snaps[0].tris[j])
					}
				}
				if len(snaps[i].pack) != len(snaps[0].pack) {
					t.Fatalf("packing size mismatch: %d vs %d",
						len(snaps[i].pack), len(snaps[0].pack))
				}
				for j := range snaps[i].pack {
					if snaps[i].pack[j] != snaps[0].pack[j] {
						t.Fatalf("packing diverges at %d", j)
					}
				}
				for v := range snaps[i].vees {
					if snaps[i].vees[v] != snaps[0].vees[v] {
						t.Fatalf("vee count diverges at vertex %d", v)
					}
				}
				if len(snaps[i].veesAt) != len(snaps[0].veesAt) {
					t.Fatalf("vee matching size mismatch")
				}
				for j := range snaps[i].veesAt {
					if snaps[i].veesAt[j] != snaps[0].veesAt[j] {
						t.Fatalf("vee matching diverges at %d: %v vs %v",
							j, snaps[i].veesAt[j], snaps[0].veesAt[j])
					}
				}
				if snaps[i].hasTri != snaps[0].hasTri || snaps[i].triangle != snaps[0].triangle {
					t.Fatalf("witness diverges: (%v,%v) vs (%v,%v)",
						snaps[i].triangle, snaps[i].hasTri, snaps[0].triangle, snaps[0].hasTri)
				}
			}
		})
	}
}

// TestHasTriangleOnShadowEquivalence checks the per-edge apex across all
// threshold settings and every edge, including the mixed dense/sparse
// pairing the star graph forces.
func TestHasTriangleOnShadowEquivalence(t *testing.T) {
	for name, base := range denseTestGraphs() {
		t.Run(name, func(t *testing.T) {
			type res struct {
				apex int
				ok   bool
			}
			var runs [3][]res
			for i, floor := range []int{-1, 1, 16} {
				withDenseFloor(t, floor, func() {
					g := rebuild(base)
					g.VisitEdges(func(e Edge) bool {
						a, ok := g.HasTriangleOn(e)
						runs[i] = append(runs[i], res{a, ok})
						return true
					})
				})
			}
			for i := 1; i < 3; i++ {
				if len(runs[i]) != len(runs[0]) {
					t.Fatal("edge enumeration length mismatch")
				}
				for j := range runs[i] {
					if runs[i][j] != runs[0][j] {
						t.Fatalf("edge %d: %+v vs %+v", j, runs[i][j], runs[0][j])
					}
				}
			}
		})
	}
}

// TestParallelDeterminism demands bit-identical results from the
// parallel kernels at worker counts 1..8, including the FindTriangleN
// witness.
func TestParallelDeterminism(t *testing.T) {
	for name, g := range denseTestGraphs() {
		t.Run(name, func(t *testing.T) {
			wantCount := g.CountTriangles()
			wantTri, wantOk := g.FindTriangle()
			for workers := 1; workers <= 8; workers++ {
				if got := g.CountTrianglesN(workers); got != wantCount {
					t.Fatalf("workers=%d: count %d != %d", workers, got, wantCount)
				}
				tri, ok := g.FindTriangleN(workers)
				if ok != wantOk || tri != wantTri {
					t.Fatalf("workers=%d: witness (%v,%v) != (%v,%v)",
						workers, tri, ok, wantTri, wantOk)
				}
			}
		})
	}
}

// TestRowChunksCoverage checks the partition is a disjoint cover of
// [0, n) for assorted part counts.
func TestRowChunksCoverage(t *testing.T) {
	for name, g := range denseTestGraphs() {
		for _, parts := range []int{1, 2, 3, 7, 64, 1000} {
			chunks := g.rowChunks(parts)
			if len(chunks) > parts {
				t.Fatalf("%s parts=%d: %d chunks", name, parts, len(chunks))
			}
			next := 0
			for _, c := range chunks {
				if c[0] != next || c[1] < c[0] {
					t.Fatalf("%s parts=%d: bad chunk %v at expected start %d", name, parts, c, next)
				}
				next = c[1]
			}
			if next != g.N() {
				t.Fatalf("%s parts=%d: cover ends at %d, want %d", name, parts, next, g.N())
			}
		}
	}
}

// TestProbeCursor checks batched probes against HasEdge on every graph
// and both row kinds.
func TestProbeCursor(t *testing.T) {
	for name, g := range denseTestGraphs() {
		t.Run(name, func(t *testing.T) {
			n := g.N()
			vs := make([]int32, 0, n)
			for v := 0; v < n; v += 3 {
				vs = append(vs, int32(v))
			}
			out := make([]bool, len(vs))
			for u := 0; u < n; u += 5 {
				g.HasEdgeBatch(u, vs, out)
				for i, v := range vs {
					if out[i] != g.HasEdge(u, int(v)) {
						t.Fatalf("u=%d v=%d: batch %v != HasEdge %v",
							u, v, out[i], g.HasEdge(u, int(v)))
					}
				}
			}
			// FirstAdjacent against a linear scan.
			cands := []int{n - 1, 1, 0, 2, n / 2, 3}
			for u := 0; u < n; u += 7 {
				want := -1
				for i, v := range cands {
					if g.HasEdge(u, v) {
						want = i
						break
					}
				}
				if got := g.FirstAdjacent(u, cands); got != want {
					t.Fatalf("u=%d: FirstAdjacent %d != %d", u, got, want)
				}
			}
		})
	}
}

// TestPackTrianglesAllocs pins the satellite target: ≤2 allocations at
// steady state (the exact-size result copy plus pool noise), and
// PackTriangleCount/counting kernels at zero.
func TestPackTrianglesAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are not meaningful under -race: sync.Pool drops Puts")
	}
	rng := rand.New(rand.NewSource(3))
	g := FarWithDegree(FarParams{N: 1024, D: 16, Eps: 0.2}, rng).G
	g.PackTriangles() // warm pools
	if avg := testing.AllocsPerRun(10, func() { g.PackTriangles() }); avg > 2 {
		t.Fatalf("PackTriangles allocs/op = %v, want ≤ 2", avg)
	}
	if avg := testing.AllocsPerRun(10, func() { g.PackTriangleCount() }); avg > 0 {
		t.Fatalf("PackTriangleCount allocs/op = %v, want 0", avg)
	}
	if avg := testing.AllocsPerRun(10, func() { g.CountTriangles() }); avg > 0 {
		t.Fatalf("CountTriangles allocs/op = %v, want 0", avg)
	}
	if avg := testing.AllocsPerRun(10, func() {
		for v := 0; v < g.N(); v++ {
			g.DisjointVeeCountAt(v)
		}
	}); avg > 0 {
		t.Fatalf("DisjointVeeCountAt sweep allocs/op = %v, want 0", avg)
	}
	if n := g.PackTriangleCount(); n != len(g.PackTriangles()) {
		t.Fatalf("PackTriangleCount %d != len(PackTriangles) %d", n, len(g.PackTriangles()))
	}
}
