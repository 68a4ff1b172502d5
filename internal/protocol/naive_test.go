package protocol

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"tricomm/internal/graph"
	"tricomm/internal/partition"
)

func TestNaiveUniformSoundness(t *testing.T) {
	// One-sided like every tester here: never a triangle on bipartite
	// inputs.
	g := triangleFreeGraph(30)
	for seed := uint64(0); seed < 4; seed++ {
		top := topFor(t, g, partition.Duplicate{Q: 0.4}, 4, seed)
		res, err := NaiveUniform{Eps: 0.2, Tag: fmt.Sprintf("s%d", seed)}.RunOn(context.Background(), top)
		if err != nil {
			t.Fatal(err)
		}
		if res.Found() {
			t.Fatalf("seed %d: naive tester hallucinated %v", seed, res.Triangle)
		}
	}
}

func TestNaiveUniformFindsSpreadTriangles(t *testing.T) {
	// When triangles are spread over a constant fraction of vertices,
	// uniform sampling is fine.
	g, eps := farLowDegree(31)
	rate := completeness(t, func(seed uint64) Tester {
		return NaiveUniform{Eps: eps, Tag: fmt.Sprintf("n%d", seed)}
	}, g, partition.Disjoint{}, 4, 8)
	if rate < 0.7 {
		t.Fatalf("naive completeness %.2f < 0.7 on spread triangles", rate)
	}
}

func TestNaiveUniformFailsOnHiddenBlock(t *testing.T) {
	// The §3.3 motivation: all triangles hidden on a vanishing fraction of
	// vertices. The bucketed tester must beat uniform sampling decisively.
	const trials = 10
	bucketedWins, naiveWins := 0, 0
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		g, _ := graph.HiddenBlock(graph.HiddenBlockParams{N: 12000, A: 6, NoiseDeg: 4}, rng)
		eps := g.FarnessLowerBound()
		top := topFor(t, g, partition.Disjoint{}, 4, uint64(trial)+800)
		rb, err := Unrestricted{Eps: eps, AvgDegree: g.AvgDegree(),
			Tag: fmt.Sprintf("hb%d", trial)}.RunOn(context.Background(), top)
		if err != nil {
			t.Fatal(err)
		}
		if rb.Found() {
			bucketedWins++
		}
		rn, err := NaiveUniform{Eps: eps, Tag: fmt.Sprintf("hn%d", trial)}.RunOn(context.Background(), top)
		if err != nil {
			t.Fatal(err)
		}
		if rn.Found() {
			naiveWins++
		}
	}
	if bucketedWins <= naiveWins+2 {
		t.Fatalf("no separation: bucketed %d/%d vs naive %d/%d",
			bucketedWins, trials, naiveWins, trials)
	}
}

func TestNaiveUniformValidation(t *testing.T) {
	g := graph.Complete(5)
	top := topFor(t, g, partition.Disjoint{}, 2, 1)
	if _, err := (NaiveUniform{Eps: 0}).RunOn(context.Background(), top); err == nil {
		t.Fatal("eps=0 accepted")
	}
}
