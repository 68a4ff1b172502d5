// Package lowerbound implements the constructive side of the paper's §4:
// the hard input distribution µ, budget-capped adversary strategies that
// probe the one-way and simultaneous triangle-edge-detection thresholds,
// the Boolean Hidden Matching reduction (Theorem 4.16), the symmetrization
// embedding (Theorem 4.15), and the degree-padding embedding (Lemma 4.17).
//
// The bounds themselves are information-theoretic and not "runnable"; what
// is runnable — and what this package provides — is (a) the exact
// reductions with checkable structure, and (b) empirical hardness probes:
// concrete best-effort strategy families parameterized by a communication
// budget whose success probability on µ stays near chance until the budget
// crosses the scale the theorems predict (n^{1/4}·… for one-way, √n·… for
// simultaneous, at d = Θ(√n)).
package lowerbound

import (
	"fmt"
	"math"
	"math/rand"

	"tricomm/internal/graph"
	"tricomm/internal/wire"
)

// MuParams parameterizes the hard distribution µ of §4.2.1.
type MuParams struct {
	// NPart is the size of each of the three parts U, V1, V2, so the graph
	// has n = 3·NPart vertices.
	NPart int
	// Gamma is the edge-probability constant: each cross-part pair is an
	// edge independently with probability Gamma/√n.
	Gamma float64
}

// MuInstance is a sample from µ together with its part structure and the
// canonical 3-player split: Alice holds U×V1, Bob holds U×V2, and Charlie
// holds V1×V2 (the side he must output a triangle edge from).
type MuInstance struct {
	// G is the sampled tripartite graph.
	G *graph.Graph
	// NPart is the part size; parts are U = [0, NPart),
	// V1 = [NPart, 2·NPart), V2 = [2·NPart, 3·NPart).
	NPart int
	// Alice, Bob, Charlie are the three players' edge sets.
	Alice, Bob, Charlie []wire.Edge
}

// N reports the total vertex count 3·NPart.
func (m MuInstance) N() int { return 3 * m.NPart }

// Part returns 0, 1 or 2 for a vertex in U, V1 or V2.
func (m MuInstance) Part(v int) int { return v / m.NPart }

// Inputs returns the 3-player input vector (Alice, Bob, Charlie).
func (m MuInstance) Inputs() [][]wire.Edge {
	return [][]wire.Edge{m.Alice, m.Bob, m.Charlie}
}

// SampleMu draws an instance of µ.
func SampleMu(p MuParams, rng *rand.Rand) MuInstance {
	if p.NPart < 1 {
		panic(fmt.Sprintf("lowerbound: NPart must be positive, got %d", p.NPart))
	}
	n := 3 * p.NPart
	prob := p.Gamma / math.Sqrt(float64(n))
	g := graph.Tripartite(p.NPart, p.NPart, p.NPart, prob, rng)
	inst := MuInstance{G: g, NPart: p.NPart}
	g.VisitEdges(func(e wire.Edge) bool {
		pu, pv := inst.Part(e.U), inst.Part(e.V)
		lo, hi := pu, pv
		if lo > hi {
			lo, hi = hi, lo
		}
		switch {
		case lo == 0 && hi == 1: // U × V1 → Alice
			inst.Alice = append(inst.Alice, e)
		case lo == 0 && hi == 2: // U × V2 → Bob
			inst.Bob = append(inst.Bob, e)
		default: // V1 × V2 → Charlie
			inst.Charlie = append(inst.Charlie, e)
		}
		return true
	})
	return inst
}

// FarnessCertificate returns the size of a maximal edge-disjoint triangle
// packing of the instance and the implied farness lower bound — the
// quantity Lemma 4.5 shows is Ω(n^{3/2}) (hence Ω(1)-far) with constant
// probability.
func (m MuInstance) FarnessCertificate() (packing int, eps float64) {
	pack := m.G.PackTriangles()
	if m.G.M() == 0 {
		return len(pack), 0
	}
	return len(pack), float64(len(pack)) / float64(m.G.M())
}

// TriangleEdgesOfCharlie returns Charlie's edges that participate in a
// triangle of G — the valid outputs of the triangle-edge-detection task
// T^ε (Theorem 4.1).
func (m MuInstance) TriangleEdgesOfCharlie() []wire.Edge {
	var out []wire.Edge
	for _, e := range m.Charlie {
		if _, ok := m.G.HasTriangleOn(e); ok {
			out = append(out, e)
		}
	}
	return out
}

// IsValidOutput reports whether edge e solves the triangle-edge task on
// this instance: it must be one of Charlie's edges and lie on a triangle.
func (m MuInstance) IsValidOutput(e wire.Edge) bool {
	if !m.G.HasEdge(e.U, e.V) {
		return false
	}
	lo, hi := m.Part(e.U), m.Part(e.V)
	if lo > hi {
		lo, hi = hi, lo
	}
	if lo != 1 || hi != 2 {
		return false
	}
	_, ok := m.G.HasTriangleOn(e)
	return ok
}
