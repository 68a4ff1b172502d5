package graph

import (
	"math/rand"
	"testing"
)

// refGraph is the naive reference implementation the CSR core is checked
// against: an edge-set map plus recomputed-on-demand degree and neighbor
// views. It intentionally mirrors the pre-CSR representation.
type refGraph struct {
	n   int
	set map[[2]int]bool
}

func newRefGraph(n int) *refGraph { return &refGraph{n: n, set: map[[2]int]bool{}} }

func (r *refGraph) add(u, v int) {
	if u == v {
		return
	}
	if u > v {
		u, v = v, u
	}
	r.set[[2]int{u, v}] = true
}

func (r *refGraph) has(u, v int) bool {
	if u > v {
		u, v = v, u
	}
	return r.set[[2]int{u, v}]
}

func (r *refGraph) neighbors(v int) []int32 {
	var out []int32
	for w := 0; w < r.n; w++ {
		if w != v && r.has(v, w) {
			out = append(out, int32(w))
		}
	}
	return out
}

func (r *refGraph) hasTriangle() bool {
	for e := range r.set {
		for w := 0; w < r.n; w++ {
			if w != e[0] && w != e[1] && r.has(e[0], w) && r.has(e[1], w) {
				return true
			}
		}
	}
	return false
}

// randomInstance draws a random edge multiset (with deliberate duplicates
// and self-loops, which AddEdge must ignore) and builds both
// representations.
func randomInstance(rng *rand.Rand, n, tries int) (*Graph, *refGraph) {
	b := NewBuilder(n)
	ref := newRefGraph(n)
	for i := 0; i < tries; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		b.AddEdge(u, v)
		ref.add(u, v)
		if ref.has(u, v) != b.Has(u, v) {
			panic("builder Has diverged mid-construction")
		}
	}
	return b.Build(), ref
}

// TestCSRAgainstNaiveReference is the property test pinning the CSR core
// to the naive edge-set model: HasEdge, Neighbors, Degree, M, Edges,
// MaxDegree, and FindTriangle must agree on randomized graphs of many
// shapes and densities.
func TestCSRAgainstNaiveReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20260727))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(40)
		tries := rng.Intn(3 * n)
		g, ref := randomInstance(rng, n, tries)

		if g.N() != n {
			t.Fatalf("trial %d: N = %d, want %d", trial, g.N(), n)
		}
		if g.M() != len(ref.set) {
			t.Fatalf("trial %d: M = %d, want %d", trial, g.M(), len(ref.set))
		}
		maxDeg := 0
		for v := 0; v < n; v++ {
			want := ref.neighbors(v)
			got := g.Neighbors(v)
			if len(got) != len(want) {
				t.Fatalf("trial %d: Neighbors(%d) = %v, want %v", trial, v, got, want)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("trial %d: Neighbors(%d) = %v, want %v (sorted)", trial, v, got, want)
				}
			}
			if g.Degree(v) != len(want) {
				t.Fatalf("trial %d: Degree(%d) = %d, want %d", trial, v, g.Degree(v), len(want))
			}
			if len(want) > maxDeg {
				maxDeg = len(want)
			}
		}
		if g.MaxDegree() != maxDeg {
			t.Fatalf("trial %d: MaxDegree = %d, want %d", trial, g.MaxDegree(), maxDeg)
		}
		// Membership over every pair, plus out-of-range and self queries.
		for u := -1; u <= n; u++ {
			for v := -1; v <= n; v++ {
				want := u != v && u >= 0 && v >= 0 && u < n && v < n && ref.has(u, v)
				if g.HasEdge(u, v) != want {
					t.Fatalf("trial %d: HasEdge(%d,%d) = %v, want %v", trial, u, v, g.HasEdge(u, v), want)
				}
			}
		}
		// Edges must be canonical, sorted, and exactly the reference set.
		edges := g.Edges()
		if len(edges) != len(ref.set) {
			t.Fatalf("trial %d: %d edges, want %d", trial, len(edges), len(ref.set))
		}
		for i, e := range edges {
			if e.U >= e.V || !ref.has(e.U, e.V) {
				t.Fatalf("trial %d: bad edge %v", trial, e)
			}
			if i > 0 && !(edges[i-1].U < e.U || (edges[i-1].U == e.U && edges[i-1].V < e.V)) {
				t.Fatalf("trial %d: edges out of order at %d: %v", trial, i, edges)
			}
		}
		// Triangle existence agrees; any witness must be a real triangle.
		tri, ok := g.FindTriangle()
		if ok != ref.hasTriangle() {
			t.Fatalf("trial %d: FindTriangle ok=%v, reference=%v", trial, ok, ref.hasTriangle())
		}
		if ok && !(ref.has(tri.A, tri.B) && ref.has(tri.A, tri.C) && ref.has(tri.B, tri.C)) {
			t.Fatalf("trial %d: bogus witness %v", trial, tri)
		}
	}
}

// TestBuilderFrozen checks the freeze contract: Build recycles the
// builder, and further AddEdge calls must fail loudly rather than corrupt
// pooled state.
func TestBuilderFrozen(t *testing.T) {
	b := NewBuilder(4)
	b.AddEdge(0, 1)
	g := b.Build()
	if g.M() != 1 {
		t.Fatalf("M = %d", g.M())
	}
	if b.Has(0, 1) {
		t.Fatal("frozen builder still answers Has")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("AddEdge after Build did not panic")
		}
	}()
	b.AddEdge(2, 3)
}
