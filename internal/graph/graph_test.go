package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBuilderBasics(t *testing.T) {
	b := NewBuilder(5)
	b.AddEdge(0, 1)
	b.AddEdge(1, 0) // duplicate (reversed)
	b.AddEdge(2, 2) // self-loop ignored
	b.AddEdge(3, 4)
	if b.NumEdges() != 2 {
		t.Fatalf("NumEdges = %d, want 2", b.NumEdges())
	}
	if !b.Has(0, 1) || !b.Has(1, 0) {
		t.Fatal("Has missed inserted edge")
	}
	if b.Has(2, 2) || b.Has(0, 3) {
		t.Fatal("Has reported absent edge")
	}
	g := b.Build()
	if g.N() != 5 || g.M() != 2 {
		t.Fatalf("N=%d M=%d", g.N(), g.M())
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(4, 3) {
		t.Fatal("HasEdge missed edge")
	}
	if g.HasEdge(0, 2) || g.HasEdge(1, 1) || g.HasEdge(-1, 0) || g.HasEdge(0, 99) {
		t.Fatal("HasEdge reported absent edge")
	}
}

func TestBuilderOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("AddEdge out of range did not panic")
		}
	}()
	NewBuilder(3).AddEdge(0, 3)
}

func TestDegreesAndNeighbors(t *testing.T) {
	g := FromEdges(4, []Edge{{U: 0, V: 1}, {U: 0, V: 2}, {U: 0, V: 3}, {U: 2, V: 3}})
	if g.Degree(0) != 3 || g.Degree(1) != 1 || g.Degree(2) != 2 {
		t.Fatalf("degrees: %d %d %d", g.Degree(0), g.Degree(1), g.Degree(2))
	}
	nb := g.Neighbors(0)
	want := []int32{1, 2, 3}
	for i := range want {
		if nb[i] != want[i] {
			t.Fatalf("Neighbors(0) = %v", nb)
		}
	}
	if g.MaxDegree() != 3 {
		t.Fatalf("MaxDegree = %d", g.MaxDegree())
	}
	if got := g.AvgDegree(); got != 2 {
		t.Fatalf("AvgDegree = %v, want 2", got)
	}
}

func TestEdgesCanonicalOrder(t *testing.T) {
	g := FromEdges(5, []Edge{{U: 4, V: 2}, {U: 1, V: 0}, {U: 3, V: 1}})
	es := g.Edges()
	want := []Edge{{U: 0, V: 1}, {U: 1, V: 3}, {U: 2, V: 4}}
	if len(es) != len(want) {
		t.Fatalf("Edges = %v", es)
	}
	for i := range want {
		if es[i] != want[i] {
			t.Fatalf("Edges[%d] = %v, want %v", i, es[i], want[i])
		}
	}
}

func TestVisitEdgesEarlyStop(t *testing.T) {
	g := Complete(6)
	count := 0
	g.VisitEdges(func(Edge) bool {
		count++
		return count < 4
	})
	if count != 4 {
		t.Fatalf("visited %d edges, want 4", count)
	}
}

func TestDegreeHistogram(t *testing.T) {
	g := Star(5) // center degree 4, leaves degree 1
	h := g.DegreeHistogram()
	if h[4] != 1 || h[1] != 4 {
		t.Fatalf("histogram = %v", h)
	}
}

func TestQuickEdgeSetConsistency(t *testing.T) {
	// For random graphs: Edges(), HasEdge, Degree and M agree.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := ErdosRenyi(30, 0.2, rng)
		es := g.Edges()
		if len(es) != g.M() {
			return false
		}
		degSum := 0
		for v := 0; v < g.N(); v++ {
			degSum += g.Degree(v)
		}
		if degSum != 2*g.M() {
			return false
		}
		for _, e := range es {
			if !g.HasEdge(e.U, e.V) || !g.HasEdge(e.V, e.U) {
				return false
			}
			if e.U >= e.V {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestErdosRenyiEdgeCount(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const n = 400
	const p = 0.05
	g := ErdosRenyi(n, p, rng)
	want := p * float64(n) * float64(n-1) / 2
	if got := float64(g.M()); got < 0.85*want || got > 1.15*want {
		t.Fatalf("M = %v, want ~%v", got, want)
	}
}

func TestErdosRenyiExtremes(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	if g := ErdosRenyi(10, 0, rng); g.M() != 0 {
		t.Fatal("p=0 produced edges")
	}
	if g := ErdosRenyi(10, 1, rng); g.M() != 45 {
		t.Fatalf("p=1 produced %d edges, want 45", g.M())
	}
	if g := ErdosRenyi(0, 0.5, rng); g.N() != 0 || g.M() != 0 {
		t.Fatal("n=0 misbehaved")
	}
	if g := ErdosRenyi(1, 0.5, rng); g.M() != 0 {
		t.Fatal("n=1 produced edges")
	}
}

func TestPairFromIndex(t *testing.T) {
	n := 7
	idx := int64(0)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			gu, gv := pairFromIndex(n, idx)
			if gu != u || gv != v {
				t.Fatalf("pairFromIndex(%d) = (%d,%d), want (%d,%d)", idx, gu, gv, u, v)
			}
			idx++
		}
	}
}

func TestRandomBipartiteIsTriangleFree(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 10; trial++ {
		g := RandomBipartite(30, 40, 0.3, rng)
		if !g.IsTriangleFree() {
			t.Fatal("bipartite graph contains a triangle")
		}
	}
}

func TestBipartiteAvgDegree(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := BipartiteAvgDegree(500, 12, rng)
	if d := g.AvgDegree(); d < 10 || d > 14 {
		t.Fatalf("AvgDegree = %v, want ~12", d)
	}
	if !g.IsTriangleFree() {
		t.Fatal("not triangle-free")
	}
}

func TestTripartiteStructure(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := Tripartite(20, 20, 20, 0.5, rng)
	// No same-part edges.
	part := func(v int) int { return v / 20 }
	g.VisitEdges(func(e Edge) bool {
		if part(e.U) == part(e.V) {
			t.Errorf("same-part edge %v", e)
		}
		return true
	})
	// Every triangle has one vertex per part.
	for _, tri := range g.Triangles(100) {
		if part(tri.A) == part(tri.B) || part(tri.B) == part(tri.C) {
			t.Fatalf("triangle %v not cross-part", tri)
		}
	}
}

func TestEmbedPreservesTriangles(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := Complete(6)
	h := Embed(g, 60)
	if h.N() != 60 {
		t.Fatalf("N = %d", h.N())
	}
	if h.CountTriangles() != g.CountTriangles() {
		t.Fatal("triangle count changed")
	}
	if h.AvgDegree() >= g.AvgDegree() {
		t.Fatal("embedding did not lower average degree")
	}
	_ = rng
}

func TestStarCycleComplete(t *testing.T) {
	if !Star(10).IsTriangleFree() {
		t.Fatal("star has a triangle")
	}
	if !Cycle(10).IsTriangleFree() {
		t.Fatal("C10 has a triangle")
	}
	if Cycle(3).IsTriangleFree() {
		t.Fatal("C3 is a triangle")
	}
	if got := Complete(5).CountTriangles(); got != 10 {
		t.Fatalf("K5 triangles = %d, want 10", got)
	}
}
