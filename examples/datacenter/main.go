// Datacenter scenario: interaction-graph edges (e.g. "who messaged whom")
// are logged independently by k datacenters, with overlap — the same event
// may appear in several logs. A central auditor wants to know whether the
// interaction graph is triangle-free or far from it (triangle-richness is
// a standard proxy for community structure) without hauling the logs.
//
// This example compares, across densities spanning the d = √n crossover:
//   - the naive exact audit (ship everything, Θ(k·nd·log n) bits),
//   - the interactive tester (coordinator model, Õ(k(nd)^{1/4} + k²)),
//   - the one-round degree-oblivious tester (no coordination, no knowledge
//     of the density, each datacenter sends a single message).
package main

import (
	"context"
	"fmt"
	"math"
	"os"

	"tricomm"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "datacenter: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	const (
		n   = 4096
		k   = 8
		eps = 0.2
	)
	sqrtN := math.Sqrt(n)
	fmt.Printf("auditing interaction graphs: n=%d, k=%d datacenters, duplicated logs\n", n, k)
	fmt.Printf("%-10s %-8s %14s %14s %14s\n", "density", "regime", "exact_bits", "interactive", "one-round")

	for _, d := range []float64{4, 16, 64, 128} {
		regime := "d<√n"
		if d >= sqrtN {
			regime = "d≥√n"
		}
		g, _ := tricomm.FarGraph(n, d, eps, int64(d))
		cluster, err := tricomm.Split(g, k, tricomm.SplitDuplicate, uint64(d))
		if err != nil {
			return err
		}
		ctx := context.Background()

		exact, err := cluster.Test(ctx, tricomm.Options{Protocol: tricomm.Exact})
		if err != nil {
			return err
		}
		inter, err := cluster.Test(ctx, tricomm.Options{
			Protocol: tricomm.Interactive, Eps: eps, AvgDegree: g.AvgDegree(),
		})
		if err != nil {
			return err
		}
		// The one-round audit runs as a Session: every repetition reuses
		// the cluster's split and draws only fresh shared randomness, and
		// the one-round tester builds no per-datacenter graph, so
		// amplifying the one-sided success probability costs each
		// repetition its sketches and their communication.
		session, err := cluster.Session(tricomm.Options{
			Protocol: tricomm.SimultaneousOblivious, Eps: eps,
		})
		if err != nil {
			return err
		}
		oneRound, err := session.Test(ctx)
		if err != nil {
			return err
		}
		// The printed column is the audit's total spend: up to 3 one-round
		// repetitions when the early ones come back triangle-free.
		oneRoundBits := oneRound.Bits
		for rep := 1; oneRound.TriangleFree && rep < 3; rep++ {
			retry, err := session.TestWithSeed(ctx, fmt.Sprintf("audit/%d", rep))
			if err != nil {
				return err
			}
			oneRoundBits += retry.Bits
			oneRound = retry
		}
		fmt.Printf("%-10.0f %-8s %14d %14d %14d\n",
			d, regime, exact.Bits, inter.Bits, oneRoundBits)
		if !exact.TriangleFree && oneRound.TriangleFree {
			fmt.Printf("  (one-round tester missed on this seed — one-sided error, rerun with a fresh seed)\n")
		}
	}
	fmt.Println("\ntakeaway: the testers stay orders of magnitude under the exact audit,")
	fmt.Println("and the one-round tester needs neither interaction nor the density.")
	return nil
}
