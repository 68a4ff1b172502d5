package tricomm

// Property/invariant suite at the facade layer: for every protocol ×
// split scheme, (a) soundness — a reported witness is always a real
// triangle of the union graph, and a triangle-free graph is never
// rejected (the one-sided error guarantee is structural, not
// probabilistic), and (b) accounting — Report.PhaseBits values are
// disjoint by construction of the engine meter and must sum exactly to
// Report.Bits, and per-player traffic never exceeds the total.

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"tricomm/internal/stats"
)

var invariantProtocols = []struct {
	name string
	p    Protocol
}{
	{"interactive", Interactive},
	{"blackboard", InteractiveBlackboard},
	{"sim-low", SimultaneousLow},
	{"sim-high", SimultaneousHigh},
	{"sim-oblivious", SimultaneousOblivious},
	{"exact", Exact},
}

var invariantSchemes = []struct {
	name string
	s    SplitScheme
}{
	{"disjoint", SplitDisjoint},
	{"duplicate", SplitDuplicate},
	{"byvertex", SplitByVertex},
	{"all", SplitAll},
}

// isTriangleOf reports whether w is a genuine triangle of g.
func isTriangleOf(g *Graph, w Triangle) bool {
	if w.A == w.B || w.B == w.C || w.A == w.C {
		return false
	}
	return g.HasEdge(w.A, w.B) && g.HasEdge(w.B, w.C) && g.HasEdge(w.A, w.C)
}

// checkAccounting verifies the PhaseBits/Bits/PerPlayerBits relations.
func checkAccounting(t *testing.T, rep Report) {
	t.Helper()
	if rep.Bits < 0 {
		t.Fatalf("negative total bits %d", rep.Bits)
	}
	if rep.PhaseBits != nil {
		var sum int64
		for phase, v := range rep.PhaseBits {
			if v < 0 {
				t.Fatalf("phase %q has negative bits %d", phase, v)
			}
			sum += v
		}
		if sum != rep.Bits {
			t.Fatalf("phase bits sum %d != total bits %d (phases %v)", sum, rep.Bits, rep.PhaseBits)
		}
	}
	var perSum int64
	for j, v := range rep.PerPlayerBits {
		if v < 0 {
			t.Fatalf("player %d has negative bits %d", j, v)
		}
		perSum += v
	}
	if perSum > rep.Bits {
		t.Fatalf("per-player bits sum %d exceeds total %d", perSum, rep.Bits)
	}
}

// TestInvariantSoundnessFarGraphs runs every protocol on every split of
// an ε-far graph: any reported witness must be a real triangle of the
// union of the players' inputs, and the accounting must balance. (The
// union equals the split graph for all schemes — that containment is
// fuzzed separately in internal/partition.)
func TestInvariantSoundnessFarGraphs(t *testing.T) {
	const (
		n   = 192
		d   = 8.0
		eps = 0.25
		k   = 4
	)
	for _, seed := range []uint64{3, 17} {
		g, certEps := FarGraph(n, d, eps, int64(seed))
		for _, sc := range invariantSchemes {
			cl, err := Split(g, k, sc.s, seed)
			if err != nil {
				t.Fatal(err)
			}
			union := cl.Union()
			for _, pr := range invariantProtocols {
				t.Run(fmt.Sprintf("%s/%s/seed%d", pr.name, sc.name, seed), func(t *testing.T) {
					rep, err := cl.Test(context.Background(), Options{
						Protocol: pr.p, Eps: certEps, AvgDegree: g.AvgDegree(),
					})
					if err != nil {
						t.Fatal(err)
					}
					if !rep.TriangleFree && !isTriangleOf(union, rep.Witness) {
						t.Fatalf("witness %v is not a triangle of the union graph", rep.Witness)
					}
					checkAccounting(t, rep)
				})
			}
		}
	}
}

// TestInvariantTriangleFreeNeverRejected is the structural half of
// one-sided error: on bipartite (hence triangle-free) inputs, every
// protocol under every split scheme must answer triangle-free — there is
// no randomness budget that excuses a false rejection.
func TestInvariantTriangleFreeNeverRejected(t *testing.T) {
	const (
		n = 192
		d = 8.0
		k = 4
	)
	for _, seed := range []uint64{5, 23} {
		g := BipartiteGraph(n, d, int64(seed))
		for _, sc := range invariantSchemes {
			cl, err := Split(g, k, sc.s, seed)
			if err != nil {
				t.Fatal(err)
			}
			for _, pr := range invariantProtocols {
				t.Run(fmt.Sprintf("%s/%s/seed%d", pr.name, sc.name, seed), func(t *testing.T) {
					rep, err := cl.Test(context.Background(), Options{
						Protocol: pr.p, Eps: 0.2, AvgDegree: g.AvgDegree(),
					})
					if err != nil {
						t.Fatal(err)
					}
					if !rep.TriangleFree {
						t.Fatalf("triangle-free graph rejected with witness %v", rep.Witness)
					}
					checkAccounting(t, rep)
				})
			}
		}
	}
}

// TestInvariantCompleteness pins every protocol's completeness: on a
// certified ε-far instance each finds a triangle with probability at
// least 2/3. Each protocol runs with ε = 0.2 and k = 4 on `far` and
// `behrend-blowup` under every split scheme and on `dup-adversary` under
// its prescribed split, 48 fixed-seed trials per family spread evenly
// over its splits. sim-low and sim-high get the instance's average
// degree, which they require; the others run with unknown degree. A
// family fails when the Wilson 95% lower bound of its pooled found/trials
// falls below 2/3: that tolerates up to 9 misses in 48, so a rare miss
// does not fail the suite, but a split that never finds a triangle
// (36/48) does.
func TestInvariantCompleteness(t *testing.T) {
	const trials = 48
	type scheme = struct {
		name string
		s    SplitScheme
	}
	families := []struct {
		spec    string
		schemes []scheme
	}{
		{`{"family":"far","n":256,"d":8}`, invariantSchemes},
		{"behrend-blowup", invariantSchemes},
		// Cluster gives the players the family's prescribed split.
		{`{"family":"dup-adversary","n":256}`, []scheme{{"prescribed", SplitDisjoint}}},
	}
	for _, pr := range invariantProtocols {
		t.Run(pr.name, func(t *testing.T) {
			for _, fam := range families {
				perScheme := trials / len(fam.schemes)
				found := 0
				for _, sc := range fam.schemes {
					hits := 0
					for seed := uint64(1); seed <= uint64(perScheme); seed++ {
						si, err := GenerateScenario(fam.spec, int64(seed))
						if err != nil {
							t.Fatal(err)
						}
						cl, err := si.Cluster(4, sc.s, seed)
						if err != nil {
							t.Fatal(err)
						}
						opts := Options{Protocol: pr.p, Eps: 0.2}
						if pr.p == SimultaneousLow || pr.p == SimultaneousHigh {
							opts.AvgDegree = si.Graph.AvgDegree()
						}
						rep, err := cl.Test(context.Background(), opts)
						if err != nil {
							t.Fatal(err)
						}
						if !rep.TriangleFree {
							hits++
						}
					}
					t.Logf("%s, %s: found %d/%d", fam.spec, sc.name, hits, perScheme)
					found += hits
				}
				if lo, _ := stats.Wilson(found, trials); lo < 2.0/3 {
					t.Errorf("%s: found %d/%d, Wilson 95%% lower bound %.3f < 2/3",
						fam.spec, found, trials, lo)
				}
			}
		})
	}
}

// TestInvariantTransportParity pins the transport-agnosticism contract
// end to end: every protocol under every split scheme must produce a
// seed-identical report — verdict, witness, total bits, per-player bits,
// rounds, and per-phase attribution — whether its sessions run over
// in-process channels, net.Pipe, TCP loopback sockets, or the simulated
// WAN. Coordinator-model runs must additionally report wire bytes
// consistent with the bit meter, and identical across transports (the
// framing layout is shared).
func TestInvariantTransportParity(t *testing.T) {
	const (
		n   = 128
		d   = 6.0
		eps = 0.25
		k   = 4
	)
	transports := []struct {
		name string
		tr   Transport
	}{
		{"pipe", TransportPipe},
		{"tcp", TransportTCP},
		{"wan", TransportWAN},
	}
	seed := uint64(11)
	g, certEps := FarGraph(n, d, eps, int64(seed))
	for _, sc := range invariantSchemes {
		cl, err := Split(g, k, sc.s, seed)
		if err != nil {
			t.Fatal(err)
		}
		for _, pr := range invariantProtocols {
			opts := Options{Protocol: pr.p, Eps: certEps, AvgDegree: g.AvgDegree()}
			base, err := cl.Test(context.Background(), opts)
			if err != nil {
				t.Fatal(err)
			}
			for _, tc := range transports {
				t.Run(fmt.Sprintf("%s/%s/%s", pr.name, sc.name, tc.name), func(t *testing.T) {
					opts := opts
					opts.Transport = tc.tr
					got, err := cl.Test(context.Background(), opts)
					if err != nil {
						t.Fatal(err)
					}
					if got.TriangleFree != base.TriangleFree || got.Witness != base.Witness {
						t.Fatalf("verdict diverged over %s: %+v vs %+v", tc.name, got, base)
					}
					if got.Bits != base.Bits || got.Rounds != base.Rounds {
						t.Fatalf("accounting diverged over %s: bits %d/%d rounds %d/%d",
							tc.name, got.Bits, base.Bits, got.Rounds, base.Rounds)
					}
					if !reflect.DeepEqual(got.PerPlayerBits, base.PerPlayerBits) {
						t.Fatalf("per-player bits diverged over %s: %v vs %v",
							tc.name, got.PerPlayerBits, base.PerPlayerBits)
					}
					if !reflect.DeepEqual(got.PhaseBits, base.PhaseBits) {
						t.Fatalf("phase bits diverged over %s: %v vs %v",
							tc.name, got.PhaseBits, base.PhaseBits)
					}
					if got.WireBytes != base.WireBytes {
						t.Fatalf("wire bytes diverged over %s: %d vs %d",
							tc.name, got.WireBytes, base.WireBytes)
					}
					if got.WireBytes > 0 && got.WireBytes < (got.Bits+7)/8 {
						t.Fatalf("wire bytes %d below bits/8 (%d bits)", got.WireBytes, got.Bits)
					}
					checkAccounting(t, got)
				})
			}
		}
	}
}

// TestInvariantRepeatedTestsDeterministic pins that Test is a pure
// function of (cluster seed, options): re-running any protocol on the
// same cluster reproduces the identical report.
func TestInvariantRepeatedTestsDeterministic(t *testing.T) {
	g, certEps := FarGraph(128, 6, 0.25, 9)
	cl, err := Split(g, 3, SplitDuplicate, 9)
	if err != nil {
		t.Fatal(err)
	}
	for _, pr := range invariantProtocols {
		opts := Options{Protocol: pr.p, Eps: certEps, AvgDegree: g.AvgDegree()}
		a, err := cl.Test(context.Background(), opts)
		if err != nil {
			t.Fatal(err)
		}
		b, err := cl.Test(context.Background(), opts)
		if err != nil {
			t.Fatal(err)
		}
		if a.TriangleFree != b.TriangleFree || a.Witness != b.Witness ||
			a.Bits != b.Bits || a.Rounds != b.Rounds {
			t.Fatalf("%s: repeated Test diverged: %+v vs %+v", pr.name, a, b)
		}
	}
}
