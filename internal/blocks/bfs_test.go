package blocks

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"tricomm/internal/comm"
	"tricomm/internal/graph"
	"tricomm/internal/partition"
)

func TestNeighborsMatchesUnion(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := graph.ErdosRenyi(50, 0.15, rng)
	runCoord(t, g, partition.Duplicate{Q: 0.4}, 4, 31, func(ctx context.Context, c *comm.Coordinator) error {
		for v := 0; v < g.N(); v++ {
			got, err := Neighbors(ctx, c, v)
			if err != nil {
				return err
			}
			if len(got) != g.Degree(v) {
				return fmt.Errorf("vertex %d: %d neighbors, want %d", v, len(got), g.Degree(v))
			}
			for _, u := range got {
				if !g.HasEdge(v, u) {
					return fmt.Errorf("vertex %d: phantom neighbor %d", v, u)
				}
			}
		}
		return nil
	})
}

func TestBFSLevels(t *testing.T) {
	// A path graph has unambiguous BFS depths.
	b := graph.NewBuilder(10)
	for v := 0; v < 9; v++ {
		b.AddEdge(v, v+1)
	}
	g := b.Build()
	runCoord(t, g, partition.Disjoint{}, 3, 32, func(ctx context.Context, c *comm.Coordinator) error {
		order, depth, err := BFS(ctx, c, 0, 0)
		if err != nil {
			return err
		}
		if len(order) != 10 {
			return fmt.Errorf("visited %d vertices", len(order))
		}
		for v := 0; v < 10; v++ {
			if depth[v] != v {
				return fmt.Errorf("depth[%d] = %d", v, depth[v])
			}
		}
		return nil
	})
}

func TestBFSConnectedComponent(t *testing.T) {
	// BFS from one component must not leak into another.
	rng := rand.New(rand.NewSource(2))
	g := graph.DisjointTriangles(30, 5, rng)
	runCoord(t, g, partition.Duplicate{Q: 0.5}, 3, 33, func(ctx context.Context, c *comm.Coordinator) error {
		start := -1
		for v := 0; v < g.N(); v++ {
			if g.Degree(v) > 0 {
				start = v
				break
			}
		}
		order, depth, err := BFS(ctx, c, start, 0)
		if err != nil {
			return err
		}
		if len(order) != 3 {
			return fmt.Errorf("component of a triangle has %d vertices", len(order))
		}
		for _, v := range order {
			if depth[v] > 1 {
				return fmt.Errorf("triangle BFS depth %d", depth[v])
			}
		}
		return nil
	})
}

func TestBFSMaxVisit(t *testing.T) {
	g := graph.Complete(20)
	runCoord(t, g, partition.Disjoint{}, 3, 34, func(ctx context.Context, c *comm.Coordinator) error {
		order, _, err := BFS(ctx, c, 0, 5)
		if err != nil {
			return err
		}
		if len(order) != 5 {
			return fmt.Errorf("maxVisit ignored: %d", len(order))
		}
		return nil
	})
}

func TestExactDegreeUnderDuplication(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := graph.ErdosRenyi(60, 0.2, rng)
	runCoord(t, g, partition.All{}, 4, 35, func(ctx context.Context, c *comm.Coordinator) error {
		for _, v := range []int{0, 10, 30, 59} {
			deg, err := ExactDegree(ctx, c, v)
			if err != nil {
				return err
			}
			if deg != g.Degree(v) {
				return fmt.Errorf("vertex %d: exact degree %d, want %d", v, deg, g.Degree(v))
			}
		}
		return nil
	})
}

func TestExactDegreeCostLinearInN(t *testing.T) {
	// The bitmap protocol costs Θ(k·n) — the ApproxDegree comparison point.
	g := graph.Star(128)
	const k = 4
	s := runCoord(t, g, partition.Disjoint{}, k, 36, func(ctx context.Context, c *comm.Coordinator) error {
		_, err := ExactDegree(ctx, c, 0)
		return err
	})
	// Up traffic alone is k·n bits of bitmaps.
	if s.UpBits < int64(k*g.N()) {
		t.Fatalf("up bits %d < k·n = %d", s.UpBits, k*g.N())
	}
	if s.UpBits > int64(2*k*g.N()) {
		t.Fatalf("up bits %d unreasonably large", s.UpBits)
	}
}

func TestExactVsApproxDegreeCost(t *testing.T) {
	// ApproxDegree must be much cheaper than ExactDegree on large sparse
	// graphs (the §3.1 point of the approximation).
	rng := rand.New(rand.NewSource(4))
	g := graph.ErdosRenyi(4096, 0.002, rng)
	v := 0
	for u := 0; u < g.N(); u++ {
		if g.Degree(u) > g.Degree(v) {
			v = u
		}
	}
	var exactBits, approxBits int64
	runCoord(t, g, partition.Duplicate{Q: 0.3}, 4, 37, func(ctx context.Context, c *comm.Coordinator) error {
		before := c.Stats().TotalBits
		if _, err := ExactDegree(ctx, c, v); err != nil {
			return err
		}
		exactBits = c.Stats().TotalBits - before
		before = c.Stats().TotalBits
		if _, err := ApproxDegree(ctx, c, v, DefaultApprox()); err != nil {
			return err
		}
		approxBits = c.Stats().TotalBits - before
		return nil
	})
	if approxBits >= exactBits {
		t.Fatalf("approx (%d bits) not cheaper than exact (%d bits)", approxBits, exactBits)
	}
}
