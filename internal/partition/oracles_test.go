package partition

import (
	"fmt"

	"tricomm/internal/graph"
	"tricomm/internal/wire"
	"tricomm/internal/xrand"
)

// Test oracles: the player count, the players' views and the union, the
// coverage check every scheme is held to, and one-pass references for the
// randomized splits.

// refDisjointSplit is Disjoint.Split as one pass that appends each edge to
// its owner's list as it draws the owner. Disjoint.Split must produce the
// same Inputs.
func refDisjointSplit(g *graph.Graph, k int, s *xrand.Shared) *Partition {
	rng := s.Stream("partition/disjoint")
	inputs := make([][]wire.Edge, k)
	g.VisitEdges(func(e wire.Edge) bool {
		j := rng.Intn(k)
		inputs[j] = append(inputs[j], e)
		return true
	})
	return &Partition{N: g.N(), Inputs: inputs, Scheme: "disjoint"}
}

// refDuplicateSplit is Duplicate.Split as one pass that appends each edge
// to every player that draws it. Duplicate.Split must produce the same
// Inputs.
func refDuplicateSplit(d Duplicate, g *graph.Graph, k int, s *xrand.Shared) *Partition {
	rng := s.Stream("partition/duplicate")
	inputs := make([][]wire.Edge, k)
	g.VisitEdges(func(e wire.Edge) bool {
		holder := rng.Intn(k)
		for j := 0; j < k; j++ {
			if j == holder || rng.Float64() < d.Q {
				inputs[j] = append(inputs[j], e)
			}
		}
		return true
	})
	return &Partition{N: g.N(), Inputs: inputs, Scheme: d.Name()}
}

// K reports the number of players.
func (p *Partition) K() int { return len(p.Inputs) }

// Views materializes each player's input as a graph (the player's local
// view (V, E_j)), which protocols use for local degree and adjacency
// queries.
func (p *Partition) Views() []*graph.Graph {
	views := make([]*graph.Graph, len(p.Inputs))
	for j, edges := range p.Inputs {
		views[j] = graph.FromEdges(p.N, edges)
	}
	return views
}

// Union returns the union of all player inputs as a graph. For a valid
// partition of g this equals g.
func (p *Partition) Union() *graph.Graph {
	b := graph.NewBuilder(p.N)
	for _, edges := range p.Inputs {
		for _, e := range edges {
			b.AddEdge(e.U, e.V)
		}
	}
	return b.Build()
}

// Validate checks that the partition covers exactly the edges of g.
func (p *Partition) Validate(g *graph.Graph) error {
	if p.N != g.N() {
		return fmt.Errorf("partition: vertex count %d != graph %d", p.N, g.N())
	}
	u := p.Union()
	if u.M() != g.M() {
		return fmt.Errorf("partition: union has %d edges, graph has %d", u.M(), g.M())
	}
	var bad error
	g.VisitEdges(func(e wire.Edge) bool {
		if !u.HasEdge(e.U, e.V) {
			bad = fmt.Errorf("partition: edge %v not covered", e)
			return false
		}
		return true
	})
	return bad
}
