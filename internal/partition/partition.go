// Package partition divides a graph's edge set among k players.
//
// The model (paper §2) gives each player j a subset E_j ⊆ E with
// ⋃_j E_j = E. Crucially, the sets need not be disjoint — edge duplication
// is allowed and is what makes several primitives (exact degree counting,
// unbiased edge sampling) non-trivial. This package provides the
// partitioning schemes used by the experiments, all deterministic functions
// of a shared seed.
package partition

import (
	"fmt"
	"math/bits"

	"tricomm/internal/bitset"
	"tricomm/internal/graph"
	"tricomm/internal/wire"
	"tricomm/internal/xrand"
)

// Partition is the result of splitting a graph among k players.
type Partition struct {
	// N is the vertex count of the underlying graph.
	N int
	// Inputs[j] is player j's private edge set E_j.
	Inputs [][]wire.Edge
	// Scheme is the name of the partitioner that produced this partition.
	Scheme string
}

// TotalHeld reports Σ_j |E_j| (≥ |E|, with equality iff no duplication).
func (p *Partition) TotalHeld() int {
	total := 0
	for _, edges := range p.Inputs {
		total += len(edges)
	}
	return total
}

// Partitioner splits a graph's edges among k players.
type Partitioner interface {
	// Name identifies the scheme in experiment logs.
	Name() string
	// Split divides g's edges among k players using randomness derived
	// from s. The union of the outputs always equals E(g).
	Split(g *graph.Graph, k int, s *xrand.Shared) *Partition
}

// Disjoint assigns each edge to a single uniformly random player. This is
// the "no-duplication variant" of the paper (Corollaries 3.25/3.27,
// Lemma 3.2).
type Disjoint struct{}

var _ Partitioner = Disjoint{}

// Name implements Partitioner.
func (Disjoint) Name() string { return "disjoint" }

// Split implements Partitioner. It draws every edge's owner first, in
// canonical edge order, then allocates each player's list at its final
// length and fills it in a second pass over the edges.
func (Disjoint) Split(g *graph.Graph, k int, s *xrand.Shared) *Partition {
	mustPlayers(k)
	rng := s.Stream("partition/disjoint")
	owner := make([]int32, g.M())
	counts := make([]int, k)
	for i := range owner {
		j := rng.Intn(k)
		owner[i] = int32(j)
		counts[j]++
	}
	inputs := sizedInputs(counts)
	i := 0
	g.VisitEdges(func(e wire.Edge) bool {
		j := owner[i]
		inputs[j] = append(inputs[j], e)
		i++
		return true
	})
	return &Partition{N: g.N(), Inputs: inputs, Scheme: "disjoint"}
}

// Duplicate assigns each edge to one uniformly random holder (guaranteeing
// coverage) and additionally replicates it to every other player
// independently with probability Q. Q = 0 degenerates to Disjoint; Q = 1
// gives every player the whole graph.
type Duplicate struct {
	// Q is the independent replication probability per (edge, player).
	Q float64
}

var _ Partitioner = Duplicate{}

// Name implements Partitioner.
func (d Duplicate) Name() string { return fmt.Sprintf("duplicate(q=%.2f)", d.Q) }

// Split implements Partitioner. It draws every (edge, player) membership
// first, in canonical edge order and player order within an edge, then
// allocates each player's list at its final length and fills it in a
// second pass over the edges.
func (d Duplicate) Split(g *graph.Graph, k int, s *xrand.Shared) *Partition {
	mustPlayers(k)
	rng := s.Stream("partition/duplicate")
	// Edge i's memberships are the bitset row held[i·w : (i+1)·w], bit j
	// for player j, so the fill pass can jump between set bits.
	w := bitset.Words(k)
	held := make([]uint64, g.M()*w)
	counts := make([]int, k)
	for row := held; len(row) > 0; row = row[w:] {
		holder := rng.Intn(k)
		for j := 0; j < k; j++ {
			if j == holder || rng.Float64() < d.Q {
				bitset.Mark(row, j)
				counts[j]++
			}
		}
	}
	inputs := sizedInputs(counts)
	row := held
	g.VisitEdges(func(e wire.Edge) bool {
		for wi, word := range row[:w] {
			for ; word != 0; word &= word - 1 {
				j := wi<<6 | bits.TrailingZeros64(word)
				inputs[j] = append(inputs[j], e)
			}
		}
		row = row[w:]
		return true
	})
	return &Partition{N: g.N(), Inputs: inputs, Scheme: d.Name()}
}

// All gives every player the entire edge set — the maximal-duplication
// stress case.
type All struct{}

var _ Partitioner = All{}

// Name implements Partitioner.
func (All) Name() string { return "all" }

// Split implements Partitioner.
func (All) Split(g *graph.Graph, k int, _ *xrand.Shared) *Partition {
	mustPlayers(k)
	edges := g.Edges()
	inputs := make([][]wire.Edge, k)
	for j := range inputs {
		cp := make([]wire.Edge, len(edges))
		copy(cp, edges)
		inputs[j] = cp
	}
	return &Partition{N: g.N(), Inputs: inputs, Scheme: "all"}
}

// RoundRobin deals edges to players cyclically in canonical edge order —
// a deterministic disjoint partition.
type RoundRobin struct{}

var _ Partitioner = RoundRobin{}

// Name implements Partitioner.
func (RoundRobin) Name() string { return "roundrobin" }

// Split implements Partitioner.
func (RoundRobin) Split(g *graph.Graph, k int, _ *xrand.Shared) *Partition {
	mustPlayers(k)
	inputs := make([][]wire.Edge, k)
	i := 0
	g.VisitEdges(func(e wire.Edge) bool {
		inputs[i%k] = append(inputs[i%k], e)
		i++
		return true
	})
	return &Partition{N: g.N(), Inputs: inputs, Scheme: "roundrobin"}
}

// ByVertex routes each edge to the player owning its lower endpoint
// (ownership by keyed hash). All edges incident to a low-id vertex land on
// one player — the locality-skewed case that stresses degree estimation
// and the B̃ᵢ candidate sets.
type ByVertex struct{}

var _ Partitioner = ByVertex{}

// Name implements Partitioner.
func (ByVertex) Name() string { return "byvertex" }

// Split implements Partitioner.
func (ByVertex) Split(g *graph.Graph, k int, s *xrand.Shared) *Partition {
	mustPlayers(k)
	key := s.Key("partition/byvertex")
	inputs := make([][]wire.Edge, k)
	g.VisitEdges(func(e wire.Edge) bool {
		j := int(key.Hash(uint64(e.U)) % uint64(k))
		inputs[j] = append(inputs[j], e)
		return true
	})
	return &Partition{N: g.N(), Inputs: inputs, Scheme: "byvertex"}
}

// sizedInputs returns k player lists with capacity counts[j] each; a
// player with no edges keeps a nil list.
func sizedInputs(counts []int) [][]wire.Edge {
	inputs := make([][]wire.Edge, len(counts))
	for j, c := range counts {
		if c > 0 {
			inputs[j] = make([]wire.Edge, 0, c)
		}
	}
	return inputs
}

func mustPlayers(k int) {
	if k < 1 {
		panic(fmt.Sprintf("partition: need at least one player, got %d", k))
	}
}
