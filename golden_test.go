package tricomm

// Golden-value regression tests: the values below pin every verdict,
// witness, bit count, per-player split, and round count of the testers
// in every model. They were first captured from the seed implementation
// (per-run view construction, mutex metering) and re-baselined only where
// a change altered a protocol's transcript; the engine's cached views,
// atomic metering, and player-order AskAll rounds must reproduce them
// exactly.

import (
	"context"
	"reflect"
	"testing"
)

type goldenCase struct {
	name      string
	n         int
	d         float64
	k         int
	seed      uint64
	far       bool
	opts      Options
	free      bool
	witness   Triangle
	bits      int64
	perPlayer []int64
	rounds    int64
	proto     string
}

var goldenCases = []goldenCase{
	{name: "interactive-far", n: 512, d: 8, k: 4, seed: 11, far: true,
		opts: Options{Protocol: Interactive, Eps: 0.2, AvgDegree: 8},
		free: false, witness: Triangle{A: 11, B: 62, C: 491}, bits: 183805,
		perPlayer: []int64{45974, 46029, 45943, 45859}, rounds: 337, proto: "unrestricted"},
	{name: "interactive-oblivious-far", n: 512, d: 8, k: 4, seed: 12, far: true,
		opts: Options{Protocol: Interactive, Eps: 0.2},
		free: false, witness: Triangle{A: 22, B: 29, C: 101}, bits: 182040,
		perPlayer: []int64{45520, 45479, 45487, 45554}, rounds: 328, proto: "unrestricted"},
	{name: "blackboard-far", n: 512, d: 8, k: 4, seed: 13, far: true,
		opts: Options{Protocol: InteractiveBlackboard, Eps: 0.2, AvgDegree: 8},
		free: false, witness: Triangle{A: 7, B: 330, C: 415}, bits: 1627,
		perPlayer: []int64{416, 421, 389, 401}, rounds: 1, proto: "unrestricted-blackboard"},
	{name: "simlow-far", n: 1024, d: 8, k: 6, seed: 14, far: true,
		opts: Options{Protocol: SimultaneousLow, Eps: 0.2, AvgDegree: 8},
		free: false, witness: Triangle{A: 10, B: 359, C: 991}, bits: 6668,
		perPlayer: []int64{1028, 1088, 1228, 1088, 1128, 1108}, rounds: 1, proto: "sim-low"},
	{name: "simhigh-far", n: 1024, d: 64, k: 6, seed: 15, far: true,
		opts: Options{Protocol: SimultaneousHigh, Eps: 0.2, AvgDegree: 64},
		free: false, witness: Triangle{A: 59, B: 145, C: 180}, bits: 12728,
		perPlayer: []int64{2148, 2068, 2128, 1868, 2508, 2008}, rounds: 1, proto: "sim-high"},
	{name: "simobl-far", n: 1024, d: 8, k: 6, seed: 16, far: true,
		opts: Options{Protocol: SimultaneousOblivious, Eps: 0.2},
		free: false, witness: Triangle{A: 2, B: 211, C: 212}, bits: 58600,
		perPlayer: []int64{10408, 9892, 10728, 8692, 8752, 10128}, rounds: 1, proto: "sim-oblivious"},
	{name: "exact-far", n: 256, d: 8, k: 4, seed: 17, far: true,
		opts: Options{Protocol: Exact},
		free: false, witness: Triangle{A: 4, B: 10, C: 12}, bits: 16448,
		perPlayer: []int64{4016, 3984, 4080, 4368}, rounds: 1, proto: "exact-baseline"},
	{name: "simlow-free", n: 1024, d: 8, k: 6, seed: 18, far: false,
		opts: Options{Protocol: SimultaneousLow, Eps: 0.2, AvgDegree: 8},
		free: true, bits: 5128,
		perPlayer: []int64{1008, 828, 628, 888, 1008, 768}, rounds: 1, proto: "sim-low"},
	{name: "interactive-free", n: 512, d: 8, k: 4, seed: 19, far: false,
		opts: Options{Protocol: Interactive, Eps: 0.2, AvgDegree: 8},
		free: true, bits: 289324,
		perPlayer: []int64{72367, 72257, 72400, 72300}, rounds: 585, proto: "unrestricted"},
	{name: "blackboard-free", n: 512, d: 8, k: 4, seed: 20, far: false,
		opts: Options{Protocol: InteractiveBlackboard, Eps: 0.2},
		free: true, bits: 15505,
		perPlayer: []int64{3816, 3814, 4034, 3841}, rounds: 6, proto: "unrestricted-blackboard"},
}

func (gc goldenCase) cluster(t *testing.T) *Cluster {
	t.Helper()
	var g *Graph
	if gc.far {
		g, _ = FarGraph(gc.n, gc.d, 0.2, int64(gc.seed))
	} else {
		g = BipartiteGraph(gc.n, gc.d, int64(gc.seed))
	}
	cluster, err := Split(g, gc.k, SplitDisjoint, gc.seed)
	if err != nil {
		t.Fatal(err)
	}
	return cluster
}

func (gc goldenCase) check(t *testing.T, rep Report) {
	t.Helper()
	if rep.TriangleFree != gc.free {
		t.Errorf("TriangleFree = %v, want %v", rep.TriangleFree, gc.free)
	}
	if rep.Witness != gc.witness {
		t.Errorf("Witness = %v, want %v", rep.Witness, gc.witness)
	}
	if rep.Bits != gc.bits {
		t.Errorf("Bits = %d, want %d", rep.Bits, gc.bits)
	}
	if !reflect.DeepEqual(rep.PerPlayerBits, gc.perPlayer) {
		t.Errorf("PerPlayerBits = %v, want %v", rep.PerPlayerBits, gc.perPlayer)
	}
	if rep.Rounds != gc.rounds {
		t.Errorf("Rounds = %d, want %d", rep.Rounds, gc.rounds)
	}
	if rep.Protocol != gc.proto {
		t.Errorf("Protocol = %q, want %q", rep.Protocol, gc.proto)
	}
}

func TestGoldenValuesMatchSeed(t *testing.T) {
	for _, gc := range goldenCases {
		t.Run(gc.name, func(t *testing.T) {
			gc.check(t, mustTest(t, gc.cluster(t), gc.opts))
		})
	}
}

func mustTest(t *testing.T, c *Cluster, opts Options) Report {
	t.Helper()
	rep, err := c.Test(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestSessionMatchesTest(t *testing.T) {
	// A Session reuses cached views and must be observably identical to
	// Cluster.Test — on every call, including repeats on one cluster.
	for _, gc := range goldenCases[:4] {
		t.Run(gc.name, func(t *testing.T) {
			cluster := gc.cluster(t)
			s, err := cluster.Session(gc.opts)
			if err != nil {
				t.Fatal(err)
			}
			if s.Protocol() != gc.proto {
				t.Fatalf("session protocol = %q, want %q", s.Protocol(), gc.proto)
			}
			for call := 0; call < 3; call++ {
				rep, err := s.Test(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				gc.check(t, rep)
			}
		})
	}
}

func TestSessionWithSeedIsIndependent(t *testing.T) {
	gc := goldenCases[3] // simlow-far
	cluster := gc.cluster(t)
	s, err := cluster.Session(gc.opts)
	if err != nil {
		t.Fatal(err)
	}
	base, err := s.Test(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	reseeded, err := s.TestWithSeed(context.Background(), "retry/1")
	if err != nil {
		t.Fatal(err)
	}
	// Different randomness must actually change the sampled transcript...
	if reseeded.Bits == base.Bits {
		t.Fatalf("reseeded run drew identical transcript (bits %d)", base.Bits)
	}
	// ...while staying deterministic in the tag.
	again, err := s.TestWithSeed(context.Background(), "retry/1")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(reseeded, again) {
		t.Fatalf("TestWithSeed not deterministic: %+v vs %+v", reseeded, again)
	}
}

func TestReportPhaseBits(t *testing.T) {
	gc := goldenCases[0] // interactive-far
	rep := mustTest(t, gc.cluster(t), gc.opts)
	if len(rep.PhaseBits) == 0 {
		t.Fatal("interactive tester reported no phase split")
	}
	// Engine phases are disjoint: they partition the total exactly.
	var sum int64
	for _, v := range rep.PhaseBits {
		sum += v
	}
	if sum != rep.Bits {
		t.Fatalf("phases sum to %d, want %d (phases: %v)", sum, rep.Bits, rep.PhaseBits)
	}
	for _, phase := range []string{"estimate", "candidates", "edges"} {
		if _, ok := rep.PhaseBits[phase]; !ok {
			t.Fatalf("missing phase %q: %v", phase, rep.PhaseBits)
		}
	}
}
