// Building blocks (§3.1): the property-testing primitives, run as live
// multiparty protocols over a duplicated edge partition. Each primitive
// prints its answer and its exact communication cost, illustrating the
// paper's point that the classic query-model toolkit translates to the
// coordinator model with at most logarithmic overhead — and that
// duplication changes which implementations are viable.
package main

import (
	"context"
	"fmt"
	"os"

	"tricomm/internal/blocks"
	"tricomm/internal/comm"
	"tricomm/internal/graph"
	"tricomm/internal/partition"
	"tricomm/internal/xrand"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "buildingblocks: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	// A multi-scale graph: hubs of degrees 2, 6, 18, 54 with triangles at
	// one scale — and every edge duplicated to half the players on average.
	shared := xrand.New(7)
	g := graph.BucketStress(graph.BucketStressParams{
		N: 3000, Levels: 4, HubsPer: 3, TriLevel: 2,
	}, shared.Stream("gen"))
	const k = 6
	part := partition.Duplicate{Q: 0.5}.Split(g, k, shared)
	fmt.Printf("graph: n=%d m=%d; %d players hold %d edge copies (duplication %.1fx)\n\n",
		g.N(), g.M(), k, part.TotalHeld(), float64(part.TotalHeld())/float64(g.M()))

	top, err := comm.NewTopology(g.N(), part.Inputs, shared)
	if err != nil {
		return err
	}
	// The run tag is public: the players get it through blocks.Serve, the
	// coordinator derives the same key, and no request carries it.
	const runTag = "demo"
	stats, err := comm.RunOn(context.Background(), top, func(ctx context.Context, c *comm.Coordinator) error {
		step := costReporter(c)
		run := c.Shared.Key(runTag)

		// 1. Edge query (dense-model primitive).
		e := g.Edges()[0]
		has, err := blocks.EdgeQuery(ctx, c, e)
		if err != nil {
			return err
		}
		step(fmt.Sprintf("EdgeQuery(%v) = %v", e, has))

		// 2. Uniform random incident edge — unbiased under duplication via
		// the shared-permutation trick.
		hub := maxDegreeVertex(g)
		inc, ok, err := blocks.RandIncidentEdge(ctx, c, run, hub)
		if err != nil {
			return err
		}
		step(fmt.Sprintf("RandIncidentEdge(hub %d, deg %d) = %v ok=%v", hub, g.Degree(hub), inc, ok))

		// 3. Random walk (sparse-model primitive).
		path, err := blocks.RandomWalk(ctx, c, run, hub, 5)
		if err != nil {
			return err
		}
		step(fmt.Sprintf("RandomWalk(5 steps) = %v", path))

		// 4. Degree approximation under duplication (Thm 3.1) vs the exact
		// bitmap protocol — the reason approximation exists.
		est, err := blocks.ApproxDegree(ctx, c, hub, blocks.DefaultApprox())
		if err != nil {
			return err
		}
		step(fmt.Sprintf("ApproxDegree(hub) = %.0f (true %d, promised 4-approx)", est, g.Degree(hub)))
		exact, err := blocks.ExactDegree(ctx, c, hub)
		if err != nil {
			return err
		}
		step(fmt.Sprintf("ExactDegree(hub) = %d — exactness costs Θ(k·n) bits", exact))

		// 5. Distinct elements: |E| under duplication.
		mEst, err := blocks.ApproxDistinctEdges(ctx, c, blocks.DefaultApprox())
		if err != nil {
			return err
		}
		step(fmt.Sprintf("ApproxDistinctEdges = %.0f (true %d)", mEst, g.M()))

		// 6. BFS over the union graph.
		order, _, err := blocks.BFS(ctx, c, hub, 12)
		if err != nil {
			return err
		}
		step(fmt.Sprintf("BFS from hub visited %d vertices", len(order)))
		return nil
	}, blocks.Serve(runTag))
	if err != nil {
		return err
	}
	fmt.Printf("\ntotal: %d bits, %d messages, %d rounds\n",
		stats.TotalBits, stats.Messages, stats.Rounds)
	return nil
}

// costReporter prints the incremental cost of each step.
func costReporter(c *comm.Coordinator) func(label string) {
	last := int64(0)
	return func(label string) {
		cur := c.Stats().TotalBits
		fmt.Printf("%-70s %8d bits\n", label, cur-last)
		last = cur
	}
}

func maxDegreeVertex(g *graph.Graph) int {
	best := 0
	for v := 1; v < g.N(); v++ {
		if g.Degree(v) > g.Degree(best) {
			best = v
		}
	}
	return best
}
