package graph

import (
	"fmt"
	"math"
	"math/rand"
)

// This file contains the workload generators used by the experiments. All
// generators are deterministic functions of their *rand.Rand argument, so
// experiments are reproducible from a seed.

// ErdosRenyi samples G(n, p): every unordered pair is an edge
// independently with probability p. It uses geometric skipping, so the
// expected running time is O(n + p·n²).
func ErdosRenyi(n int, p float64, rng *rand.Rand) *Graph {
	b := NewBuilder(n)
	addErdosRenyiRange(b, 0, n, p, rng)
	return b.Build()
}

// pairFromIndex maps a linear index in [0, n(n-1)/2) to the i-th unordered
// pair (u,v), u < v, in lexicographic order.
func pairFromIndex(n int, idx int64) (int, int) {
	u := 0
	rowLen := int64(n - 1)
	for idx >= rowLen {
		idx -= rowLen
		u++
		rowLen--
	}
	return u, u + 1 + int(idx)
}

// RandomAvgDegree samples G(n, p) with p chosen so the expected average
// degree is d.
func RandomAvgDegree(n int, d float64, rng *rand.Rand) *Graph {
	if n <= 1 {
		return NewBuilder(n).Build()
	}
	p := d / float64(n-1)
	return ErdosRenyi(n, p, rng)
}

// Tripartite samples a random tripartite graph on parts of sizes
// nu, nv1, nv2 (vertex ids: U = [0,nu), V1 = [nu, nu+nv1),
// V2 = [nu+nv1, nu+nv1+nv2)). Every cross-part pair is an edge
// independently with probability p. Same-part pairs never appear, so every
// triangle has exactly one vertex in each part.
func Tripartite(nu, nv1, nv2 int, p float64, rng *rand.Rand) *Graph {
	n := nu + nv1 + nv2
	b := NewBuilder(n)
	addBipartite(b, 0, nu, nu, nu+nv1, p, rng)     // U × V1
	addBipartite(b, 0, nu, nu+nv1, n, p, rng)      // U × V2
	addBipartite(b, nu, nu+nv1, nu+nv1, n, p, rng) // V1 × V2
	return b.Build()
}

// addBipartite adds each pair in [aLo,aHi) × [bLo,bHi) independently with
// probability p using geometric skipping.
func addBipartite(b *Builder, aLo, aHi, bLo, bHi int, p float64, rng *rand.Rand) {
	na, nb := aHi-aLo, bHi-bLo
	if na <= 0 || nb <= 0 || p <= 0 {
		return
	}
	if p >= 1 {
		for u := aLo; u < aHi; u++ {
			for v := bLo; v < bHi; v++ {
				b.AddEdge(u, v)
			}
		}
		return
	}
	logq := math.Log1p(-p)
	total := int64(na) * int64(nb)
	var i int64 = -1
	for {
		u := rng.Float64()
		skip := int64(math.Floor(math.Log(1-u) / logq))
		i += skip + 1
		if i >= total {
			return
		}
		b.AddEdge(aLo+int(i/int64(nb)), bLo+int(i%int64(nb)))
	}
}

// RandomBipartite samples a bipartite G(n1, n2, p) on parts [0,n1) and
// [n1, n1+n2). Bipartite graphs are triangle-free, so this is the standard
// "no" instance generator.
func RandomBipartite(n1, n2 int, p float64, rng *rand.Rand) *Graph {
	b := NewBuilder(n1 + n2)
	addBipartite(b, 0, n1, n1, n1+n2, p, rng)
	return b.Build()
}

// BipartiteAvgDegree samples a triangle-free bipartite random graph on n
// vertices (split in half) with expected average degree d.
func BipartiteAvgDegree(n int, d float64, rng *rand.Rand) *Graph {
	n1 := n / 2
	n2 := n - n1
	if n1 == 0 || n2 == 0 {
		return NewBuilder(n).Build()
	}
	// avg degree = 2·p·n1·n2 / n  =>  p = d·n / (2·n1·n2).
	p := d * float64(n) / (2 * float64(n1) * float64(n2))
	return RandomBipartite(n1, n2, p, rng)
}

// DisjointTriangles builds t pairwise vertex-disjoint triangles on n ≥ 3t
// vertices (remaining vertices isolated). The graph has 3t edges and is
// exactly 1/3-far from triangle-free (removing one edge per triangle is
// necessary and sufficient).
func DisjointTriangles(n, t int, rng *rand.Rand) *Graph {
	if 3*t > n {
		panic(fmt.Sprintf("graph: DisjointTriangles needs n >= 3t (n=%d, t=%d)", n, t))
	}
	perm := rng.Perm(n)
	b := NewBuilder(n)
	for i := 0; i < t; i++ {
		a, c, d := perm[3*i], perm[3*i+1], perm[3*i+2]
		b.AddEdge(a, c)
		b.AddEdge(c, d)
		b.AddEdge(a, d)
	}
	return b.Build()
}

// FarParams controls the FarWithDegree generator.
type FarParams struct {
	N   int     // number of vertices
	D   float64 // target average degree (m = N·D/2 edges)
	Eps float64 // certified farness: ≥ Eps·m edge-disjoint triangles
}

// FarGraph is an ε-far instance together with its farness certificate.
type FarGraph struct {
	G *Graph
	// Planted is a family of pairwise edge-disjoint triangles of G, so G is
	// at least (len(Planted)/M)-far from triangle-free.
	Planted []Triangle
	// CertEps = len(Planted) / M.
	CertEps float64
}

// FarWithDegree builds a graph with ~N·D/2 edges that is certifiably
// Eps-far from triangle-free and returns it with an explicit edge-disjoint
// triangle certificate.
//
// Triangles are planted as vertex-disjoint complete tripartite blocks
// K_{a,a,a}: by a Latin-square decomposition, each block carries a²
// pairwise edge-disjoint triangles on 3a² edges, so the block alone is
// exactly 1/3-far. Block side a is matched to the target degree (block
// vertices get degree 2a ≈ 2D), blocks are planted until ceil(Eps·m)
// certificate triangles exist, and the remaining edge budget is filled with
// bipartite noise on vertices disjoint from all blocks — noise is
// triangle-free on its own and cannot touch the certificate.
//
// Requires Eps ≤ 1/3 (with a small constant of slack for rounding).
func FarWithDegree(p FarParams, rng *rand.Rand) FarGraph {
	m := int(math.Round(float64(p.N) * p.D / 2))
	t := int(math.Ceil(p.Eps * float64(m)))
	if t < 1 {
		t = 1
	}
	aMax := int(math.Round(p.D))
	if aMax < 1 {
		aMax = 1
	}
	perm := rng.Perm(p.N)
	next := 0
	take := func(c int) []int {
		if next+c > p.N {
			panic(fmt.Sprintf("graph: FarWithDegree ran out of vertices (n=%d d=%.1f eps=%.3f)",
				p.N, p.D, p.Eps))
		}
		s := perm[next : next+c]
		next += c
		return s
	}
	side := func(remaining int) int {
		if s := int(math.Ceil(math.Sqrt(float64(remaining)))); s < aMax {
			return s
		}
		return aMax
	}
	// The block sides depend only on t and aMax, and the noise loop below
	// stops at exactly m edges, so the certificate and the builder are
	// sized once here and never regrow.
	nPlanted := 0
	for remaining := t; remaining > 0; {
		a := side(remaining)
		nPlanted += a * a
		remaining -= a * a
	}
	planted := make([]Triangle, 0, nPlanted)
	b := NewBuilder(p.N)
	b.grow(m)
	for remaining := t; remaining > 0; {
		a := side(remaining)
		vs := take(3 * a)
		pu, pv, pw := vs[:a], vs[a:2*a], vs[2*a:]
		// Complete tripartite block.
		for i := 0; i < a; i++ {
			for j := 0; j < a; j++ {
				b.AddEdge(pu[i], pv[j])
				b.AddEdge(pu[i], pw[j])
				b.AddEdge(pv[i], pw[j])
			}
		}
		// Latin-square certificate: triangles (i, j, (i+j) mod a) are
		// pairwise edge-disjoint and decompose the block's edges.
		for i := 0; i < a; i++ {
			for j := 0; j < a; j++ {
				planted = append(planted, Triangle{
					A: pu[i], B: pv[j], C: pw[(i+j)%a],
				}.Canon())
			}
		}
		remaining -= a * a
	}
	if b.NumEdges() > m {
		panic(fmt.Sprintf("graph: FarWithDegree edge budget exceeded (planted %d > m=%d); increase N or D",
			b.NumEdges(), m))
	}
	// Noise: bipartite across a half-split of the unused vertices.
	rest := perm[next:]
	half := len(rest) / 2
	left, right := rest[:half], rest[half:]
	if b.NumEdges() < m && (len(left) == 0 || len(right) == 0) {
		panic("graph: FarWithDegree has no room for noise edges")
	}
	maxNoise := int64(len(left)) * int64(len(right))
	if int64(m-b.NumEdges()) > maxNoise {
		panic("graph: FarWithDegree noise budget exceeds bipartite capacity")
	}
	for tries := 0; b.NumEdges() < m; tries++ {
		if tries > 200*m+10000 {
			panic("graph: FarWithDegree failed to place noise edges (graph too dense)")
		}
		u := left[rng.Intn(len(left))]
		v := right[rng.Intn(len(right))]
		b.AddEdge(u, v)
	}
	g := b.Build()
	return FarGraph{G: g, Planted: planted, CertEps: float64(len(planted)) / float64(g.M())}
}

// DenseCoreParams controls PlantedDenseCore.
type DenseCoreParams struct {
	N     int // total vertices
	Hubs  int // number of high-degree hub vertices
	Pairs int // triangle-vee pairs per hub
}

// PlantedDenseCore builds the §3.4.2 illustration: Hubs high-degree
// vertices, each the source of Pairs edge-disjoint triangle-vees whose far
// endpoints are fresh low-degree vertices. Every triangle in the graph
// contains a hub, the hubs have degree 2·Pairs, and all other vertices have
// degree ≤ 2 — a uniformly random sampled vertex almost never hits a hub,
// which is exactly the case that breaks naive uniform sampling.
func PlantedDenseCore(p DenseCoreParams, rng *rand.Rand) *Graph {
	need := p.Hubs + 2*p.Hubs*p.Pairs
	if need > p.N {
		panic(fmt.Sprintf("graph: PlantedDenseCore needs %d vertices, have %d", need, p.N))
	}
	perm := rng.Perm(p.N)
	b := NewBuilder(p.N)
	next := p.Hubs
	for h := 0; h < p.Hubs; h++ {
		hub := perm[h]
		for i := 0; i < p.Pairs; i++ {
			a, c := perm[next], perm[next+1]
			next += 2
			b.AddEdge(hub, a)
			b.AddEdge(hub, c)
			b.AddEdge(a, c)
		}
	}
	return b.Build()
}

// BucketStressParams controls BucketStress.
type BucketStressParams struct {
	N        int // total vertices
	Levels   int // number of degree scales (hub degree 2·3^ℓ at level ℓ)
	HubsPer  int // hubs per level
	TriLevel int // the single level whose hubs carry triangle-vees
}

// BucketStress builds a graph whose degree distribution spans Levels
// powers of 3, with triangle-vees planted only at the hubs of TriLevel.
// It exercises the unrestricted protocol's bucket iteration: the full
// bucket is not the densest nor the sparsest, and every other bucket is a
// decoy with triangle-free (star) edges.
func BucketStress(p BucketStressParams, rng *rand.Rand) *Graph {
	if p.TriLevel < 0 || p.TriLevel >= p.Levels {
		panic("graph: BucketStress TriLevel out of range")
	}
	// Budget check.
	need := 0
	for l := 0; l < p.Levels; l++ {
		deg := 2 * pow3(l)
		need += p.HubsPer * (1 + deg)
	}
	if need > p.N {
		panic(fmt.Sprintf("graph: BucketStress needs %d vertices, have %d", need, p.N))
	}
	perm := rng.Perm(p.N)
	next := 0
	take := func() int { v := perm[next]; next++; return v }
	b := NewBuilder(p.N)
	for l := 0; l < p.Levels; l++ {
		deg := 2 * pow3(l)
		for h := 0; h < p.HubsPer; h++ {
			hub := take()
			if l == p.TriLevel {
				for i := 0; i < deg/2; i++ {
					a, c := take(), take()
					b.AddEdge(hub, a)
					b.AddEdge(hub, c)
					b.AddEdge(a, c)
				}
			} else {
				for i := 0; i < deg; i++ {
					b.AddEdge(hub, take())
				}
			}
		}
	}
	return b.Build()
}

func pow3(l int) int {
	v := 1
	for i := 0; i < l; i++ {
		v *= 3
	}
	return v
}

// Complete returns K_n.
func Complete(n int) *Graph {
	b := NewBuilder(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			b.AddEdge(u, v)
		}
	}
	return b.Build()
}

// Cycle returns the n-cycle (triangle-free for n ≠ 3).
func Cycle(n int) *Graph {
	b := NewBuilder(n)
	for v := 0; v < n; v++ {
		b.AddEdge(v, (v+1)%n)
	}
	return b.Build()
}

// Star returns the star K_{1,n-1} centered at vertex 0 (triangle-free).
func Star(n int) *Graph {
	b := NewBuilder(n)
	for v := 1; v < n; v++ {
		b.AddEdge(0, v)
	}
	return b.Build()
}

// Embed implements Lemma 4.17: it places g on the first g.N() ids of a
// graph with nTotal ≥ g.N() vertices, leaving the rest isolated. The
// result has the same edge set, triangles, and absolute distance to
// triangle-freeness as g, but average degree scaled by g.N()/nTotal.
func Embed(g *Graph, nTotal int) *Graph {
	if nTotal < g.N() {
		panic(fmt.Sprintf("graph: Embed target %d smaller than source %d", nTotal, g.N()))
	}
	b := NewBuilder(nTotal)
	g.VisitEdges(func(e Edge) bool {
		b.AddEdge(e.U, e.V)
		return true
	})
	return b.Build()
}

// HiddenBlockParams controls HiddenBlock.
type HiddenBlockParams struct {
	N        int     // total vertices
	A        int     // block side: the K_{A,A,A} block has 3A vertices
	NoiseDeg float64 // expected degree of the bipartite noise on the rest
}

// HiddenBlock plants a single complete tripartite block K_{A,A,A} — with
// its Latin-square family of A² edge-disjoint triangles — among N
// vertices whose remainder carries triangle-free bipartite noise. The
// block vertices are a vanishing 3A/N fraction, so uniformly random
// vertex sampling almost never probes the block, while its degree (2A)
// stands out from the noise: the §3.3 scenario ("a small dense subgraph
// of relatively high-degree nodes which contains all the triangles") that
// motivates bucketed candidate sampling. The second return value is the
// planted triangle certificate.
func HiddenBlock(p HiddenBlockParams, rng *rand.Rand) (*Graph, []Triangle) {
	if 3*p.A > p.N {
		panic(fmt.Sprintf("graph: HiddenBlock needs N ≥ 3A (N=%d, A=%d)", p.N, p.A))
	}
	perm := rng.Perm(p.N)
	pu, pv, pw := perm[:p.A], perm[p.A:2*p.A], perm[2*p.A:3*p.A]
	b := NewBuilder(p.N)
	var planted []Triangle
	for i := 0; i < p.A; i++ {
		for j := 0; j < p.A; j++ {
			b.AddEdge(pu[i], pv[j])
			b.AddEdge(pu[i], pw[j])
			b.AddEdge(pv[i], pw[j])
			planted = append(planted, Triangle{A: pu[i], B: pv[j], C: pw[(i+j)%p.A]}.Canon())
		}
	}
	// Triangle-free bipartite noise on the non-block vertices.
	rest := perm[3*p.A:]
	half := len(rest) / 2
	left, right := rest[:half], rest[half:]
	need := int(math.Round(p.NoiseDeg * float64(len(rest)) / 2))
	if need > 0 && (len(left) == 0 || len(right) == 0) {
		panic("graph: HiddenBlock has no room for noise")
	}
	maxTries := 200*need + 10000
	for tries := 0; need > 0; tries++ {
		if tries > maxTries {
			panic("graph: HiddenBlock failed to place noise edges")
		}
		u := left[rng.Intn(len(left))]
		v := right[rng.Intn(len(right))]
		if !b.Has(u, v) {
			b.AddEdge(u, v)
			need--
		}
	}
	return b.Build(), planted
}
