package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// bruteCountTriangles counts triangles by checking all vertex triples.
func bruteCountTriangles(g *Graph) int64 {
	var count int64
	for a := 0; a < g.N(); a++ {
		for b := a + 1; b < g.N(); b++ {
			if !g.HasEdge(a, b) {
				continue
			}
			for c := b + 1; c < g.N(); c++ {
				if g.HasEdge(a, c) && g.HasEdge(b, c) {
					count++
				}
			}
		}
	}
	return count
}

func TestCountTrianglesMatchesBruteForce(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := ErdosRenyi(25, 0.25, rng)
		if got, want := g.CountTriangles(), bruteCountTriangles(g); got != want {
			t.Fatalf("seed %d: CountTriangles = %d, brute = %d", seed, got, want)
		}
	}
}

func TestCountTrianglesKnown(t *testing.T) {
	cases := []struct {
		g    *Graph
		want int64
	}{
		{Complete(3), 1},
		{Complete(4), 4},
		{Complete(6), 20},
		{Cycle(5), 0},
		{Star(8), 0},
		{DisjointTriangles(30, 7, rand.New(rand.NewSource(1))), 7},
	}
	for i, c := range cases {
		if got := c.g.CountTriangles(); got != c.want {
			t.Errorf("case %d: got %d, want %d", i, got, c.want)
		}
	}
}

func TestFindTriangle(t *testing.T) {
	g := FromEdges(6, []Edge{
		{U: 0, V: 1}, {U: 1, V: 2}, {U: 3, V: 4}, {U: 4, V: 5}, {U: 3, V: 5},
	})
	tri, ok := g.FindTriangle()
	if !ok {
		t.Fatal("triangle not found")
	}
	if !g.IsTriangle(tri.A, tri.B, tri.C) {
		t.Fatalf("reported non-triangle %v", tri)
	}
	if tri.Canon() != (Triangle{A: 3, B: 4, C: 5}) {
		t.Fatalf("found %v, want (3,4,5)", tri)
	}

	free := Cycle(7)
	if _, ok := free.FindTriangle(); ok {
		t.Fatal("found triangle in C7")
	}
}

func TestHasTriangleOn(t *testing.T) {
	g := FromEdges(5, []Edge{
		{U: 0, V: 1}, {U: 1, V: 2}, {U: 0, V: 2}, {U: 2, V: 3}, {U: 3, V: 4},
	})
	if w, ok := g.HasTriangleOn(Edge{U: 0, V: 1}); !ok || w != 2 {
		t.Fatalf("HasTriangleOn(0,1) = %d,%v", w, ok)
	}
	if _, ok := g.HasTriangleOn(Edge{U: 3, V: 4}); ok {
		t.Fatal("edge {3,4} wrongly in a triangle")
	}
}

func TestTriangleCanonAndEdges(t *testing.T) {
	tr := Triangle{A: 5, B: 1, C: 3}.Canon()
	if tr != (Triangle{A: 1, B: 3, C: 5}) {
		t.Fatalf("Canon = %v", tr)
	}
	es := tr.Edges()
	want := [3]Edge{{U: 1, V: 3}, {U: 1, V: 5}, {U: 3, V: 5}}
	if es != want {
		t.Fatalf("Edges = %v", es)
	}
}

func TestTrianglesLimit(t *testing.T) {
	g := Complete(10) // 120 triangles
	if got := len(g.Triangles(5)); got != 5 {
		t.Fatalf("Triangles(5) returned %d", got)
	}
	if got := len(g.Triangles(-1)); got != 120 {
		t.Fatalf("Triangles(-1) returned %d", got)
	}
}

func TestTriangleEdges(t *testing.T) {
	g := FromEdges(6, []Edge{
		{U: 0, V: 1}, {U: 1, V: 2}, {U: 0, V: 2}, // triangle
		{U: 3, V: 4}, {U: 4, V: 5}, // path
	})
	te := g.TriangleEdges()
	if len(te) != 3 {
		t.Fatalf("TriangleEdges = %v", te)
	}
}

func TestVeeDetection(t *testing.T) {
	g := FromEdges(4, []Edge{{U: 0, V: 1}, {U: 0, V: 2}, {U: 1, V: 2}, {U: 0, V: 3}})
	if !g.IsVee(Vee{Source: 0, Left: 1, Right: 2}) {
		t.Fatal("valid vee rejected")
	}
	if g.IsVee(Vee{Source: 0, Left: 1, Right: 3}) {
		t.Fatal("non-closing vee accepted")
	}
	if g.IsVee(Vee{Source: 3, Left: 1, Right: 2}) {
		t.Fatal("vee with missing arm accepted")
	}
}

func TestDisjointVeesAtAreDisjointAndValid(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := ErdosRenyi(40, 0.3, rng)
		for v := 0; v < g.N(); v++ {
			vees := g.DisjointVeesAt(v)
			seen := map[int]bool{}
			for _, vee := range vees {
				if !g.IsVee(vee) {
					t.Fatalf("invalid vee %v", vee)
				}
				if vee.Source != v {
					t.Fatalf("vee source %d != %d", vee.Source, v)
				}
				if seen[vee.Left] || seen[vee.Right] {
					t.Fatalf("vees at %d share an arm", v)
				}
				seen[vee.Left] = true
				seen[vee.Right] = true
			}
		}
	}
}

func TestDisjointVeesCompleteGraph(t *testing.T) {
	// In K_n every pair of neighbors closes, so the matching at each vertex
	// has floor((n-1)/2) vees.
	g := Complete(9)
	for v := 0; v < 9; v++ {
		if got := len(g.DisjointVeesAt(v)); got != 4 {
			t.Fatalf("vertex %d: %d vees, want 4", v, got)
		}
	}
}

func TestPackTrianglesIsValidPacking(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := ErdosRenyi(30, 0.3, rng)
		pack := g.PackTriangles()
		used := map[Edge]bool{}
		for _, tr := range pack {
			if !g.IsTriangle(tr.A, tr.B, tr.C) {
				return false
			}
			for _, e := range tr.Edges() {
				if used[e] {
					return false
				}
				used[e] = true
			}
		}
		// Packing size is within [max/3, max]: compared against triangle
		// count only loosely — must be ≥ 1 if any triangle exists.
		if g.CountTriangles() > 0 && len(pack) == 0 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestPackTrianglesMaximal(t *testing.T) {
	// After removing one edge from each packed triangle the graph must be
	// triangle-free... not in general (greedy is maximal, not a cover); but
	// removing ALL edges of packed triangles must kill every triangle that
	// shares an edge with the packing. Instead verify maximality directly:
	// every triangle of g shares an edge with some packed triangle.
	rng := rand.New(rand.NewSource(11))
	g := ErdosRenyi(25, 0.35, rng)
	pack := g.PackTriangles()
	used := map[Edge]bool{}
	for _, tr := range pack {
		for _, e := range tr.Edges() {
			used[e] = true
		}
	}
	for _, tr := range g.Triangles(-1) {
		found := false
		for _, e := range tr.Edges() {
			if used[e] {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("triangle %v disjoint from packing — not maximal", tr)
		}
	}
}

func TestExactTriangleDistance(t *testing.T) {
	cases := []struct {
		g    *Graph
		want int
	}{
		{Cycle(6), 0},
		{Complete(3), 1},
		{Complete(4), 2}, // K4: two edge-disjoint... removing 2 opposite edges kills all 4 triangles
		{DisjointTriangles(9, 3, rand.New(rand.NewSource(1))), 3},
	}
	for i, c := range cases {
		if got := c.g.ExactTriangleDistance(); got != c.want {
			t.Errorf("case %d: distance = %d, want %d", i, got, c.want)
		}
	}
}

func TestPackingLowerBoundsExactDistance(t *testing.T) {
	for seed := int64(0); seed < 15; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := ErdosRenyi(12, 0.3, rng)
		if len(g.Triangles(-1)) == 0 {
			continue
		}
		if len(g.TriangleEdges()) > 24 {
			continue
		}
		pack := len(g.PackTriangles())
		exact := g.ExactTriangleDistance()
		if pack > exact {
			t.Fatalf("seed %d: packing %d > exact distance %d", seed, pack, exact)
		}
		// Removing one arbitrary edge per triangle is an upper bound of 3·pack?
		// Not in general; just confirm exact ≥ 1 when triangles exist.
		if exact < 1 {
			t.Fatalf("seed %d: exact distance %d with triangles present", seed, exact)
		}
	}
}

func TestFarnessLowerBound(t *testing.T) {
	g := DisjointTriangles(30, 10, rand.New(rand.NewSource(2)))
	if eps := g.FarnessLowerBound(); eps < 0.33 || eps > 0.34 {
		t.Fatalf("eps = %v, want 1/3", eps)
	}
	if eps := Cycle(8).FarnessLowerBound(); eps != 0 {
		t.Fatalf("triangle-free eps = %v", eps)
	}
	empty := NewBuilder(5).Build()
	if eps := empty.FarnessLowerBound(); eps != 0 {
		t.Fatalf("empty graph eps = %v", eps)
	}
}

func TestIsTriangleRejectsDegenerate(t *testing.T) {
	g := Complete(4)
	if g.IsTriangle(1, 1, 2) || g.IsTriangle(0, 1, 1) {
		t.Fatal("degenerate triple accepted")
	}
}
