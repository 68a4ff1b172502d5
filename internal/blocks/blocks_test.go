package blocks

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"tricomm/internal/bucket"
	"tricomm/internal/comm"
	"tricomm/internal/graph"
	"tricomm/internal/partition"
	"tricomm/internal/transport"
	"tricomm/internal/wire"
	"tricomm/internal/xrand"
)

// testRun is the run tag of the tests' sessions: runCoord's players get it
// through Serve, and coordinator code derives run keys from it.
const testRun = "test"

// runCoord executes a coordinator function against the blocks player
// dispatcher on the given graph/partition.
func runCoord(t *testing.T, g *graph.Graph, pt partition.Partitioner, k int, seed uint64,
	coord func(ctx context.Context, c *comm.Coordinator) error) comm.Stats {
	t.Helper()
	shared := xrand.New(seed)
	p := pt.Split(g, k, shared)
	stats, err := comm.RunOn(context.Background(), newTop(t, g.N(), p.Inputs, shared), coord, Serve(testRun))
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return stats
}

func newTop(t testing.TB, n int, inputs [][]wire.Edge, shared *xrand.Shared) *comm.Topology {
	t.Helper()
	top, err := comm.NewTopology(n, inputs, shared)
	if err != nil {
		t.Fatal(err)
	}
	return top
}

func TestEdgeQuery(t *testing.T) {
	g := graph.Complete(8)
	for _, pt := range []partition.Partitioner{partition.Disjoint{}, partition.Duplicate{Q: 0.5}, partition.All{}} {
		runCoord(t, g, pt, 4, 1, func(ctx context.Context, c *comm.Coordinator) error {
			has, err := EdgeQuery(ctx, c, wire.Edge{U: 2, V: 5})
			if err != nil {
				return err
			}
			if !has {
				return fmt.Errorf("%s: edge {2,5} not found", pt.Name())
			}
			return nil
		})
	}
	// Absent edge on a sparse graph.
	sparse := graph.Star(10)
	runCoord(t, sparse, partition.Disjoint{}, 3, 2, func(ctx context.Context, c *comm.Coordinator) error {
		has, err := EdgeQuery(ctx, c, wire.Edge{U: 3, V: 7})
		if err != nil {
			return err
		}
		if has {
			return fmt.Errorf("phantom edge reported")
		}
		return nil
	})
}

func TestRandIncidentEdgeValidity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := graph.ErdosRenyi(40, 0.2, rng)
	runCoord(t, g, partition.Duplicate{Q: 0.4}, 5, 3, func(ctx context.Context, c *comm.Coordinator) error {
		run := c.Shared.Key(testRun)
		for v := 0; v < g.N(); v++ {
			e, ok, err := RandIncidentEdge(ctx, c, run, v)
			if err != nil {
				return err
			}
			if ok != (g.Degree(v) > 0) {
				return fmt.Errorf("vertex %d: ok=%v but degree=%d", v, ok, g.Degree(v))
			}
			if ok && !g.HasEdge(e.U, e.V) {
				return fmt.Errorf("vertex %d: phantom edge %v", v, e)
			}
			if ok && e.U != v && e.V != v {
				return fmt.Errorf("vertex %d: edge %v not incident", v, e)
			}
		}
		return nil
	})
}

func TestRandIncidentEdgeUnbiasedUnderDuplication(t *testing.T) {
	// Star center: all leaves equally likely despite every player holding
	// every edge (maximal duplication).
	g := graph.Star(9) // center 0, leaves 1..8
	const trials = 4000
	counts := make([]int, 9)
	runCoord(t, g, partition.All{}, 4, 4, func(ctx context.Context, c *comm.Coordinator) error {
		run := c.Shared.Key(testRun)
		for i := 0; i < trials; i++ {
			e, ok, err := RandIncidentEdge(ctx, c, run, 0)
			if err != nil {
				return err
			}
			if !ok {
				return fmt.Errorf("no edge at center")
			}
			counts[e.Other(0)]++
		}
		return nil
	})
	want := float64(trials) / 8
	for leaf := 1; leaf <= 8; leaf++ {
		if got := float64(counts[leaf]); math.Abs(got-want) > 6*math.Sqrt(want) {
			t.Errorf("leaf %d sampled %v times, want ~%v", leaf, got, want)
		}
	}
}

func TestRandomWalk(t *testing.T) {
	g := graph.Cycle(20)
	runCoord(t, g, partition.Disjoint{}, 3, 5, func(ctx context.Context, c *comm.Coordinator) error {
		path, err := RandomWalk(ctx, c, c.Shared.Key(testRun), 0, 10)
		if err != nil {
			return err
		}
		if len(path) != 11 {
			return fmt.Errorf("path length %d, want 11", len(path))
		}
		for i := 1; i < len(path); i++ {
			if !g.HasEdge(path[i-1], path[i]) {
				return fmt.Errorf("step %d: %d-%d not an edge", i, path[i-1], path[i])
			}
		}
		return nil
	})
	// Walk stops at isolated vertex.
	iso := graph.NewBuilder(5).Build()
	runCoord(t, iso, partition.Disjoint{}, 2, 6, func(ctx context.Context, c *comm.Coordinator) error {
		path, err := RandomWalk(ctx, c, c.Shared.Key(testRun), 2, 5)
		if err != nil {
			return err
		}
		if len(path) != 1 {
			return fmt.Errorf("walk from isolated vertex: %v", path)
		}
		return nil
	})
}

func TestApproxDegreeWithinFactor(t *testing.T) {
	// Degrees across scales; heavy duplication. The estimator promises a
	// 4-approximation w.p. ≥ 1-τ per call; we run many calls and allow a
	// small failure budget.
	rng := rand.New(rand.NewSource(9))
	g := graph.BucketStress(graph.BucketStressParams{N: 2500, Levels: 5, HubsPer: 2, TriLevel: 1}, rng)
	var checked, failed int
	runCoord(t, g, partition.Duplicate{Q: 0.5}, 4, 9, func(ctx context.Context, c *comm.Coordinator) error {
		for v := 0; v < g.N() && checked < 60; v++ {
			d := g.Degree(v)
			if d < 2 {
				continue
			}
			checked++
			est, err := ApproxDegree(ctx, c, v, DefaultApprox())
			if err != nil {
				return err
			}
			if est < float64(d)/4.5 || est > 4.5*float64(d) {
				failed++
			}
		}
		return nil
	})
	if checked == 0 {
		t.Fatal("no vertices checked")
	}
	if failed > checked/5 {
		t.Fatalf("%d/%d estimates outside 4.5x", failed, checked)
	}
}

func TestApproxDegreeIsolated(t *testing.T) {
	g := graph.Star(6)
	runCoord(t, graph.Embed(g, 10), partition.Disjoint{}, 3, 10, func(ctx context.Context, c *comm.Coordinator) error {
		est, err := ApproxDegree(ctx, c, 9, DefaultApprox())
		if err != nil {
			return err
		}
		if est != 0 {
			return fmt.Errorf("isolated vertex estimate %v", est)
		}
		return nil
	})
}

func TestApproxDegreeBadParams(t *testing.T) {
	g := graph.Complete(4)
	runCoord(t, g, partition.Disjoint{}, 2, 11, func(ctx context.Context, c *comm.Coordinator) error {
		// Guesses are powers of two only when α is a power of 4.
		for _, alpha := range []float64{0.5, 1, 2, 5} {
			if _, err := ApproxDegree(ctx, c, 0, ApproxParams{Alpha: alpha}); err == nil {
				return fmt.Errorf("alpha %v accepted", alpha)
			}
		}
		return nil
	})
}

func TestApproxDegreeNoDup(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	g := graph.ErdosRenyi(300, 0.1, rng)
	vs := []int{0, 7, 42, 199}
	st := runCoord(t, g, partition.Disjoint{}, 5, 12, func(ctx context.Context, c *comm.Coordinator) error {
		ests, err := ApproxDegreesNoDup(ctx, c, vs, 3)
		if err != nil {
			return err
		}
		for x, v := range vs {
			d, est := float64(g.Degree(v)), ests[x]
			// Truncation under-counts: est ≤ d ≤ est·(1+2^{1-3}) per player.
			if est > d {
				return fmt.Errorf("v=%d: est %v > true %v", v, est, d)
			}
			if d > est*(1+math.Pow(2, -2))+0.01 {
				return fmt.Errorf("v=%d: est %v too far below true %v", v, est, d)
			}
		}
		return nil
	})
	if st.Rounds != 1 {
		t.Fatalf("a list of %d vertices took %d rounds, want 1", len(vs), st.Rounds)
	}
}

func TestApproxDegreeNoDupBadParams(t *testing.T) {
	g := graph.Complete(4)
	runCoord(t, g, partition.Disjoint{}, 2, 13, func(ctx context.Context, c *comm.Coordinator) error {
		if _, err := ApproxDegreesNoDup(ctx, c, []int{0}, 0); err == nil {
			return fmt.Errorf("topBits=0 accepted")
		}
		return nil
	})
}

func TestApproxDistinctEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	g := graph.ErdosRenyi(200, 0.15, rng)
	var got float64
	runCoord(t, g, partition.Duplicate{Q: 0.6}, 4, 14, func(ctx context.Context, c *comm.Coordinator) error {
		est, err := ApproxDistinctEdges(ctx, c, DefaultApprox())
		if err != nil {
			return err
		}
		got = est
		return nil
	})
	m := float64(g.M())
	if got < m/5 || got > 5*m {
		t.Fatalf("distinct edges estimate %v, true %v", got, m)
	}
}

// TestCrossSampleEdgesFilter pins the two-step draw, TouchingEdges then
// CrossEdges, against one filter over all edges with Bernoulli point
// queries, for samples from empty to full.
func TestCrossSampleEdgesFilter(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	edges := graph.ErdosRenyi(400, 0.05, rng).Edges()
	keyR := xrand.New(2).Key("r")
	keyS := xrand.New(2).Key("s")
	for _, pR := range []float64{0, 0.05, 0.3, 1} {
		for _, pS := range []float64{0, 0.2, 1} {
			var want []wire.Edge
			for _, e := range edges {
				ru, rv := keyR.Bernoulli(uint64(e.U), pR), keyR.Bernoulli(uint64(e.V), pR)
				if (ru && rv) || (ru && keyS.Bernoulli(uint64(e.V), pS)) || (rv && keyS.Bernoulli(uint64(e.U), pS)) {
					want = append(want, e)
				}
			}
			switch {
			case pR == 0 && len(want) != 0:
				t.Fatalf("pR=0 should drop all edges, kept %d", len(want))
			case pR == 1 && len(want) != len(edges):
				t.Fatalf("pR=1 should keep all edges, kept %d of %d", len(want), len(edges))
			}
			r := keyR.Sample(pR)
			got := CrossEdges(TouchingEdges(edges, r), r, keyS.Sample(pS))
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("pR=%v pS=%v: two steps keep %d edges, one filter %d", pR, pS, len(got), len(want))
			}
		}
	}
}

func TestIncidentSampleAndCloseStar(t *testing.T) {
	// Dense-core hub: sampling its arms with decent probability exposes a
	// vee, and CloseStar must complete the triangle.
	rng := rand.New(rand.NewSource(19))
	gp := graph.DenseCoreParams{N: 300, Hubs: 1, Pairs: 40}
	g := graph.PlantedDenseCore(gp, rng)
	hub := -1
	for v := 0; v < g.N(); v++ {
		if g.Degree(v) == 2*gp.Pairs {
			hub = v
			break
		}
	}
	if hub < 0 {
		t.Fatal("no hub found")
	}
	found := false
	runCoord(t, g, partition.Duplicate{Q: 0.3}, 4, 19, func(ctx context.Context, c *comm.Coordinator) error {
		for trial := 0; trial < 10 && !found; trial++ {
			arms, err := CollectIncidentSample(ctx, c, hub, 0.5, 0)
			if err != nil {
				return err
			}
			tri, ok, err := CloseStar(ctx, c, hub, arms)
			if err != nil {
				return err
			}
			if ok {
				if !g.IsTriangle(tri.A, tri.B, tri.C) {
					return fmt.Errorf("reported non-triangle %v", tri)
				}
				found = true
			}
		}
		return nil
	})
	if !found {
		t.Fatal("no triangle found at hub in 10 attempts")
	}
}

func TestCloseStarNoTriangle(t *testing.T) {
	g := graph.Star(12)
	runCoord(t, g, partition.Disjoint{}, 3, 20, func(ctx context.Context, c *comm.Coordinator) error {
		arms := []int{1, 2, 3, 4, 5}
		_, ok, err := CloseStar(ctx, c, 0, arms)
		if err != nil {
			return err
		}
		if ok {
			return fmt.Errorf("triangle reported in star")
		}
		return nil
	})
}

func TestSampleUniformCandidate(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	g := graph.BucketStress(graph.BucketStressParams{N: 1200, Levels: 4, HubsPer: 3, TriLevel: 2}, rng)
	const k = 4
	// Hubs of level 2 have degree 18 → bucket Index(18) = 3.
	bIdx := bucket.Index(18)
	members := map[int]bool{}
	for v := 0; v < g.N(); v++ {
		if bucket.Index(g.Degree(v)) == bIdx {
			members[v] = true
		}
	}
	if len(members) == 0 {
		t.Fatal("no bucket members")
	}
	sampled := map[int]bool{}
	runCoord(t, g, partition.Duplicate{Q: 0.2}, k, 21, func(ctx context.Context, c *comm.Coordinator) error {
		run := c.Shared.Key(testRun)
		for wave := 0; wave < 16; wave++ {
			vs, err := SampleUniformCandidates(ctx, c, run, bIdx, 25)
			if err != nil {
				return err
			}
			if len(vs) != 25 {
				return fmt.Errorf("wave %d: %d samples, want 25", wave, len(vs))
			}
			for _, v := range vs {
				// Candidate must have true degree ≥ d⁻(B)/k (it is in some B̃ᵢʲ).
				if float64(g.Degree(v)) < float64(bucket.DegMin(bIdx))/float64(k) {
					return fmt.Errorf("candidate %d degree %d below floor", v, g.Degree(v))
				}
				sampled[v] = true
			}
		}
		return nil
	})
	// Every true bucket member should appear among 400 samples of the
	// candidate superset with overwhelming probability (superset is small).
	for v := range members {
		if !sampled[v] {
			t.Errorf("bucket member %d never sampled", v)
		}
	}
}

// TestRequestKeyAgreement pins the request numbering every key hangs on,
// which no golden can check: a misaligned index only biases sampling, and
// regenerated goldens would absorb it. A fixed mix of requests runs
// between SampleUniformCandidates waves of 1 to 5 samples, most of them
// drawing no randomness, and pick t of a wave must be the member of
// B̃ᵢ = ⋃_j B̃ᵢʲ first under Shared.Key(testRun).Child(r).Child(t), where r
// is the wave's position in the test's own count of requests. The
// oracle computes B̃ᵢ from the players' views directly. The mix runs
// in-process and over a link that drops, duplicates and corrupts frames.
func TestRequestKeyAgreement(t *testing.T) {
	g := graph.BucketStress(graph.BucketStressParams{N: 1200, Levels: 4, HubsPer: 3, TriLevel: 2}, rand.New(rand.NewSource(41)))
	const k, waves = 4, 30
	bIdx := bucket.Index(6)
	for _, tc := range []struct {
		name string
		dial transport.Dialer
	}{
		{"in-process", nil},
		{"faulty", transport.Faulty{Spec: transport.FaultSpec{Seed: 9, Drop: 0.1, Duplicate: 0.1, Corrupt: 0.1}}},
	} {
		shared := xrand.New(41)
		top := newTop(t, g.N(), partition.Duplicate{Q: 0.3}.Split(g, k, shared).Inputs, shared)
		if tc.dial != nil {
			top = top.WithTransport(tc.dial)
		}
		var union []uint64 // B̃ᵢ: local degree in [d⁻/k, d⁺] at some player
		for v := 0; v < g.N(); v++ {
			for j := 0; j < k; j++ {
				if dj := top.View(j).Degree(v); dj > 0 && float64(dj) >= float64(bucket.DegMin(bIdx))/k && dj <= bucket.DegMax(bIdx) {
					union = append(union, uint64(v))
					break
				}
			}
		}
		run := shared.Key(testRun)
		oracle := func(r, t uint64) int {
			key := run.Child(r).Child(t)
			best := union[0]
			for _, v := range union[1:] {
				if key.Before(v, best) {
					best = v
				}
			}
			return int(best)
		}
		var r uint64 // requests sent so far, counted here
		picks, distinct := 0, map[int]bool{}
		st, err := comm.RunOn(context.Background(), top, func(ctx context.Context, c *comm.Coordinator) error {
			for i := 0; i < waves; i++ {
				vs, err := SampleUniformCandidates(ctx, c, run, bIdx, 1+i%5)
				if err != nil {
					return err
				}
				if len(vs) != 1+i%5 {
					return fmt.Errorf("wave %d (request %d): %d picks, want %d", i, r, len(vs), 1+i%5)
				}
				for t, v := range vs {
					if want := oracle(r, uint64(t)); v != want {
						return fmt.Errorf("wave %d (request %d), pick %d: got %d, want %d", i, r, t, v, want)
					}
					distinct[v] = true
				}
				picks += len(vs)
				r++
				msb := reqWriter(opCountMSB)
				msb.WriteUvarint(uint64(modeDegree))
				writeList(msb, vs)
				if _, err := c.AskAll(ctx, comm.FromWriter(msb)); err != nil {
					return err
				}
				r++
				if i%2 == 0 {
					if _, err := sampleRound(ctx, c, sampleTestRequest(modeDegree, 64, vs[:1], []int{2}), 1, 64); err != nil {
						return err
					}
					r++
				}
				if i%3 == 0 {
					if _, err := ApproxDegreesNoDup(ctx, c, vs, 2); err != nil {
						return err
					}
					r++
				}
				v := vs[0]
				if i%4 == 0 {
					if _, err := EdgeQuery(ctx, c, wire.Edge{U: v, V: (v + 1) % g.N()}); err != nil {
						return err
					}
					r++
				}
				if i%5 == 0 {
					if _, _, err := CloseStar(ctx, c, v, []int{(v + 1) % g.N(), (v + 2) % g.N()}); err != nil {
						return err
					}
					r++
				}
			}
			return nil
		}, Serve(testRun))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if st.Rounds != int64(r) {
			t.Fatalf("%s: %d rounds metered, %d requests counted", tc.name, st.Rounds, r)
		}
		if len(distinct) < picks/2 {
			t.Fatalf("%s: only %d distinct picks in %d: the check has no power", tc.name, len(distinct), picks)
		}
		t.Logf("%s: %d picks (%d distinct) in %d requests, %d retransmits", tc.name, picks, len(distinct), r, st.Retransmits)
	}
}

func TestHandleRejectsGarbage(t *testing.T) {
	g := graph.Complete(4)
	shared := xrand.New(22)
	p := partition.Disjoint{}.Split(g, 2, shared)
	_, err := comm.RunOn(context.Background(), newTop(t, g.N(), p.Inputs, shared),
		func(ctx context.Context, c *comm.Coordinator) error {
			var w wire.Writer
			w.WriteUvarint(9999) // unknown opcode
			if err := c.Send(ctx, 0, comm.FromWriter(&w)); err != nil {
				return err
			}
			_, err := c.Recv(ctx, 0)
			return err
		}, Serve(testRun))
	if err == nil {
		t.Fatal("garbage opcode accepted")
	}
}

func TestBlocksCostScalesWithK(t *testing.T) {
	// EdgeQuery cost is Θ(k·log n): doubling k roughly doubles bits.
	g := graph.Complete(64)
	cost := func(k int) int64 {
		var bits int64
		s := runCoord(t, g, partition.Disjoint{}, k, 23, func(ctx context.Context, c *comm.Coordinator) error {
			_, err := EdgeQuery(ctx, c, wire.Edge{U: 1, V: 2})
			return err
		})
		bits = s.TotalBits
		return bits
	}
	c4, c8 := cost(4), cost(8)
	if c8 < 3*c4/2 || c8 > 3*c4 {
		t.Fatalf("cost(8)=%d not ~2×cost(4)=%d", c8, c4)
	}
}
