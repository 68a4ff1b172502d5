package graph

import (
	"math/rand"
	"testing"
)

func TestFarWithDegree(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cases := []FarParams{
		{N: 300, D: 8, Eps: 0.1},
		{N: 1000, D: 4, Eps: 0.05},
		{N: 600, D: 20, Eps: 0.2},
		{N: 2000, D: 44, Eps: 0.3}, // d ≈ √n regime
	}
	for _, p := range cases {
		fg := FarWithDegree(p, rng)
		g := fg.G
		if g.N() != p.N {
			t.Fatalf("%+v: N = %d", p, g.N())
		}
		wantM := float64(p.N) * p.D / 2
		if got := float64(g.M()); got < 0.99*wantM-1 || got > 1.01*wantM+1 {
			t.Fatalf("%+v: M = %v, want ~%v", p, got, wantM)
		}
		if fg.CertEps < p.Eps*0.99 {
			t.Fatalf("%+v: certified eps %v < requested %v", p, fg.CertEps, p.Eps)
		}
		// The certificate must be a genuine edge-disjoint triangle family.
		used := map[Edge]bool{}
		for _, tr := range fg.Planted {
			if !g.IsTriangle(tr.A, tr.B, tr.C) {
				t.Fatalf("%+v: planted %v is not a triangle", p, tr)
			}
			for _, e := range tr.Edges() {
				if used[e] {
					t.Fatalf("%+v: planted triangles share edge %v", p, e)
				}
				used[e] = true
			}
		}
	}
}

func TestFarWithDegreeInfeasiblePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("infeasible params did not panic")
		}
	}()
	FarWithDegree(FarParams{N: 10, D: 2, Eps: 0.5}, rand.New(rand.NewSource(1)))
}

func TestFarWithDegreeNoiseAddsNoTriangles(t *testing.T) {
	// Noise is bipartite on vertices disjoint from the planted blocks, so
	// every triangle of the final graph lives inside a block.
	rng := rand.New(rand.NewSource(2))
	p := FarParams{N: 400, D: 10, Eps: 0.1}
	fg := FarWithDegree(p, rng)
	blockVerts := map[int]bool{}
	for _, tr := range fg.Planted {
		blockVerts[tr.A] = true
		blockVerts[tr.B] = true
		blockVerts[tr.C] = true
	}
	for _, tr := range fg.G.Triangles(-1) {
		if !blockVerts[tr.A] || !blockVerts[tr.B] || !blockVerts[tr.C] {
			t.Fatalf("triangle %v escapes the planted blocks", tr)
		}
	}
}

func TestDisjointTrianglesProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := DisjointTriangles(60, 15, rng)
	if g.M() != 45 {
		t.Fatalf("M = %d, want 45", g.M())
	}
	if got := g.CountTriangles(); got != 15 {
		t.Fatalf("triangles = %d, want 15", got)
	}
	if got := len(g.PackTriangles()); got != 15 {
		t.Fatalf("packing = %d, want 15", got)
	}
	if g.MaxDegree() != 2 {
		t.Fatalf("MaxDegree = %d, want 2", g.MaxDegree())
	}
}

func TestDisjointTrianglesPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("n < 3t did not panic")
		}
	}()
	DisjointTriangles(8, 3, rand.New(rand.NewSource(1)))
}

func TestPlantedDenseCore(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	p := DenseCoreParams{N: 2000, Hubs: 5, Pairs: 50}
	g := PlantedDenseCore(p, rng)
	// Triangle count = Hubs × Pairs, all edge-disjoint (vee arms disjoint,
	// base edges distinct).
	if got := g.CountTriangles(); got != int64(p.Hubs*p.Pairs) {
		t.Fatalf("triangles = %d, want %d", got, p.Hubs*p.Pairs)
	}
	// Hub degrees 2·Pairs; everything else ≤ 2.
	hist := g.DegreeHistogram()
	if hist[2*p.Pairs] != p.Hubs {
		t.Fatalf("hub degree histogram: %v", hist)
	}
	// Every triangle contains a hub: max degree of non-hub vertices is 2,
	// so a triangle among non-hubs would need all three degrees ≥ 2 with
	// mutual adjacency — verify directly.
	for _, tr := range g.Triangles(-1) {
		hasHub := g.Degree(tr.A) == 2*p.Pairs || g.Degree(tr.B) == 2*p.Pairs ||
			g.Degree(tr.C) == 2*p.Pairs
		if !hasHub {
			t.Fatalf("triangle %v has no hub", tr)
		}
	}
	// Farness: packing = all planted triangles.
	if got := len(g.PackTriangles()); got != p.Hubs*p.Pairs {
		t.Fatalf("packing = %d, want %d", got, p.Hubs*p.Pairs)
	}
}

func TestPlantedDenseCorePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("too-small n did not panic")
		}
	}()
	PlantedDenseCore(DenseCoreParams{N: 10, Hubs: 2, Pairs: 10}, rand.New(rand.NewSource(1)))
}

func TestBucketStress(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	p := BucketStressParams{N: 3000, Levels: 4, HubsPer: 3, TriLevel: 2}
	g := BucketStress(p, rng)
	// Triangles only at level 2 hubs: count = HubsPer × 3^2.
	want := int64(p.HubsPer * 9)
	if got := g.CountTriangles(); got != want {
		t.Fatalf("triangles = %d, want %d", got, want)
	}
	// Degree scales present: hubs of degree 2·3^ℓ for each level.
	hist := g.DegreeHistogram()
	for l := 0; l < p.Levels; l++ {
		deg := 2 * pow3(l)
		if hist[deg] < p.HubsPer {
			t.Fatalf("level %d: no hubs of degree %d in %v", l, deg, hist)
		}
	}
}

func TestBucketStressBadLevelPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bad TriLevel did not panic")
		}
	}()
	BucketStress(BucketStressParams{N: 100, Levels: 2, HubsPer: 1, TriLevel: 5},
		rand.New(rand.NewSource(1)))
}

func TestTripartiteEdgeCount(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	g := Tripartite(100, 100, 100, 0.1, rng)
	want := 3 * 0.1 * 100 * 100
	if got := float64(g.M()); got < 0.85*want || got > 1.15*want {
		t.Fatalf("M = %v, want ~%v", got, want)
	}
}

func TestEmbedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Embed shrink did not panic")
		}
	}()
	Embed(Complete(5), 4)
}

func TestHiddenBlock(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	p := HiddenBlockParams{N: 2000, A: 10, NoiseDeg: 4}
	g, planted := HiddenBlock(p, rng)
	if len(planted) != p.A*p.A {
		t.Fatalf("planted %d, want %d", len(planted), p.A*p.A)
	}
	// All triangles live in the block; noise is triangle-free.
	if got := g.CountTriangles(); got != int64(p.A*p.A*p.A) {
		t.Fatalf("triangles = %d, want %d (full K_aaa count)", got, p.A*p.A*p.A)
	}
	used := map[Edge]bool{}
	for _, tr := range planted {
		if !g.IsTriangle(tr.A, tr.B, tr.C) {
			t.Fatalf("planted %v not a triangle", tr)
		}
		for _, e := range tr.Edges() {
			if used[e] {
				t.Fatalf("certificate not edge-disjoint at %v", e)
			}
			used[e] = true
		}
	}
	// Block vertices have degree 2A; noise much lower.
	hist := g.DegreeHistogram()
	if hist[2*p.A] < 3*p.A {
		t.Fatalf("expected %d block vertices of degree %d: %v", 3*p.A, 2*p.A, hist)
	}
}

func TestHiddenBlockPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("N < 3A did not panic")
		}
	}()
	HiddenBlock(HiddenBlockParams{N: 10, A: 5}, rand.New(rand.NewSource(1)))
}
