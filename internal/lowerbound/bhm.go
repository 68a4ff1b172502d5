package lowerbound

import (
	"fmt"
	"math/rand"

	"tricomm/internal/graph"
	"tricomm/internal/wire"
)

// BHMInstance is an instance of the Boolean Matching problem BM_n
// (Definition 12): Alice holds x ∈ {0,1}^{2n}; Bob holds a perfect
// matching M on [2n] and w ∈ {0,1}^n; the promise is that Mx⊕w is either
// all-zeros or all-ones, and the players must decide which.
type BHMInstance struct {
	// X is Alice's vector, length 2n.
	X []bool
	// M is Bob's perfect matching: n disjoint pairs covering [2n].
	M [][2]int
	// W is Bob's vector, length n.
	W []bool
	// AllZero records the promise side: true iff Mx⊕w = 0ⁿ.
	AllZero bool
}

// NBits returns n (the matching size).
func (b BHMInstance) NBits() int { return len(b.M) }

// SampleBHM draws a uniformly random promise instance: x and M are
// uniform, and w is derived to satisfy the chosen promise side.
func SampleBHM(n int, allZero bool, rng *rand.Rand) BHMInstance {
	if n < 1 {
		panic(fmt.Sprintf("lowerbound: BHM needs n ≥ 1, got %d", n))
	}
	inst := BHMInstance{
		X:       make([]bool, 2*n),
		M:       make([][2]int, n),
		W:       make([]bool, n),
		AllZero: allZero,
	}
	for i := range inst.X {
		inst.X[i] = rng.Intn(2) == 1
	}
	perm := rng.Perm(2 * n)
	for j := 0; j < n; j++ {
		inst.M[j] = [2]int{perm[2*j], perm[2*j+1]}
	}
	for j := 0; j < n; j++ {
		parity := inst.X[inst.M[j][0]] != inst.X[inst.M[j][1]] // (Mx)_j
		if allZero {
			inst.W[j] = parity // w_j = (Mx)_j ⇒ (Mx⊕w)_j = 0
		} else {
			inst.W[j] = !parity
		}
	}
	return inst
}

// BHMReduction is the graph constructed from a BHM instance by the
// Theorem 4.16 reduction. Vertices: u = 0, and for each i ∈ [2n] the pair
// (i,0) ↦ 1+2i, (i,1) ↦ 2+2i — so 4n+1 vertices in total.
//
//   - Alice contributes the star edges {u, (i, x_i)} for every i ∈ [2n].
//   - Bob contributes, per matching edge e_j = {j₁, j₂}: the parallel
//     rails {(j₁,0),(j₂,0)}, {(j₁,1),(j₂,1)} if w_j = 0, or the crossed
//     rails if w_j = 1.
//
// The subgraph on {u, (j₁,·), (j₂,·)} contains a triangle iff
// (Mx⊕w)_j = 0, so the all-zeros side yields n edge-disjoint triangles
// (a 1/4-far graph of average degree O(1)) and the all-ones side is
// triangle-free.
type BHMReduction struct {
	// G is the reduction graph.
	G *graph.Graph
	// AliceEdges and BobEdges are the two players' inputs.
	AliceEdges, BobEdges []wire.Edge
	// Inst is the source instance.
	Inst BHMInstance
}

// VertexOf maps pair-vertex (i, side) to its graph id.
func bhmVertex(i, side int) int { return 1 + 2*i + side }

// Reduce constructs the reduction graph from a BHM instance.
func Reduce(inst BHMInstance) BHMReduction {
	n := inst.NBits()
	numVerts := 1 + 4*n
	b := graph.NewBuilder(numVerts)
	red := BHMReduction{Inst: inst}
	for i := 0; i < 2*n; i++ {
		side := 0
		if inst.X[i] {
			side = 1
		}
		e := wire.Edge{U: 0, V: bhmVertex(i, side)}.Canon()
		b.AddEdge(e.U, e.V)
		red.AliceEdges = append(red.AliceEdges, e)
	}
	for j := 0; j < n; j++ {
		j1, j2 := inst.M[j][0], inst.M[j][1]
		var pairs [2][2]int
		if !inst.W[j] {
			pairs = [2][2]int{{0, 0}, {1, 1}}
		} else {
			pairs = [2][2]int{{0, 1}, {1, 0}}
		}
		for _, pr := range pairs {
			e := wire.Edge{U: bhmVertex(j1, pr[0]), V: bhmVertex(j2, pr[1])}.Canon()
			b.AddEdge(e.U, e.V)
			red.BobEdges = append(red.BobEdges, e)
		}
	}
	red.G = b.Build()
	return red
}

// Inputs returns the 2-player input vector (Alice, Bob).
func (r BHMReduction) Inputs() [][]wire.Edge {
	return [][]wire.Edge{r.AliceEdges, r.BobEdges}
}

// ExpectedTriangles returns the number of triangles the dichotomy
// predicts: n on the all-zeros side, 0 on the all-ones side.
func (r BHMReduction) ExpectedTriangles() int64 {
	if r.Inst.AllZero {
		return int64(r.Inst.NBits())
	}
	return 0
}
