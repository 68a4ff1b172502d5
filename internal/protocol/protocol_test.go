package protocol

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"tricomm/internal/comm"
	"tricomm/internal/graph"
	"tricomm/internal/partition"
	"tricomm/internal/xrand"
)

// Tester is the common interface all protocols in this package satisfy.
type Tester interface {
	Name() string
	RunOn(ctx context.Context, top *comm.Topology) (Result, error)
}

var (
	_ Tester = Unrestricted{}
	_ Tester = UnrestrictedBlackboard{}
	_ Tester = SimHigh{}
	_ Tester = SimLow{}
	_ Tester = SimOblivious{}
	_ Tester = ExactBaseline{}
)

func topFor(t testing.TB, g *graph.Graph, pt partition.Partitioner, k int, seed uint64) *comm.Topology {
	t.Helper()
	shared := xrand.New(seed)
	top, err := comm.NewTopology(g.N(), pt.Split(g, k, shared).Inputs, shared)
	if err != nil {
		t.Fatal(err)
	}
	return top
}

// farLowDegree is an ε-far instance in the d = O(√n) regime.
func farLowDegree(seed int64) (*graph.Graph, float64) {
	rng := rand.New(rand.NewSource(seed))
	fg := graph.FarWithDegree(graph.FarParams{N: 600, D: 8, Eps: 0.25}, rng)
	return fg.G, fg.CertEps
}

// farHighDegree is an ε-far instance in the d = Ω(√n) regime
// (d ≈ 36 ≥ √900 = 30).
func farHighDegree(seed int64) (*graph.Graph, float64) {
	rng := rand.New(rand.NewSource(seed))
	fg := graph.FarWithDegree(graph.FarParams{N: 900, D: 36, Eps: 0.25}, rng)
	return fg.G, fg.CertEps
}

func triangleFreeGraph(seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	return graph.BipartiteAvgDegree(600, 8, rng)
}

func testersFor(eps, d float64) []Tester {
	return []Tester{
		Unrestricted{Eps: eps, AvgDegree: d},
		Unrestricted{Eps: eps}, // degree-oblivious interactive
		UnrestrictedBlackboard{Eps: eps, AvgDegree: d},
		SimHigh{Eps: eps, AvgDegree: d, Delta: 0.1},
		SimLow{Eps: eps, AvgDegree: d, Delta: 0.1},
		SimOblivious{Eps: eps, Delta: 0.1},
		ExactBaseline{},
	}
}

func TestOneSidedErrorOnTriangleFree(t *testing.T) {
	// No protocol may ever report a triangle on a triangle-free graph —
	// this is the probability-1 soundness guarantee.
	for seed := int64(0); seed < 5; seed++ {
		g := triangleFreeGraph(seed)
		d := g.AvgDegree()
		for _, tester := range testersFor(0.2, d) {
			for _, pt := range []partition.Partitioner{partition.Disjoint{}, partition.Duplicate{Q: 0.4}} {
				top := topFor(t, g, pt, 4, uint64(seed)+100)
				res, err := tester.RunOn(context.Background(), top)
				if err != nil {
					t.Fatalf("%s/%s seed %d: %v", tester.Name(), pt.Name(), seed, err)
				}
				if res.Found() {
					t.Fatalf("%s/%s seed %d: reported triangle %v on triangle-free graph",
						tester.Name(), pt.Name(), seed, res.Triangle)
				}
			}
		}
	}
}

func TestReportedTrianglesAreReal(t *testing.T) {
	g, eps := farLowDegree(1)
	d := g.AvgDegree()
	for _, tester := range testersFor(eps, d) {
		for seed := uint64(0); seed < 4; seed++ {
			top := topFor(t, g, partition.Duplicate{Q: 0.3}, 5, seed)
			res, err := tester.RunOn(context.Background(), top)
			if err != nil {
				t.Fatalf("%s seed %d: %v", tester.Name(), seed, err)
			}
			if res.Found() && !g.IsTriangle(res.Triangle.A, res.Triangle.B, res.Triangle.C) {
				t.Fatalf("%s seed %d: phantom triangle %v", tester.Name(), seed, res.Triangle)
			}
		}
	}
}

// completeness runs a tester over many seeds and returns the success rate.
func completeness(t *testing.T, mk func(seed uint64) Tester, g *graph.Graph, pt partition.Partitioner, k int, trials int) float64 {
	t.Helper()
	found := 0
	for seed := uint64(0); seed < uint64(trials); seed++ {
		top := topFor(t, g, pt, k, seed*7+13)
		res, err := mk(seed).RunOn(context.Background(), top)
		if err != nil {
			t.Fatalf("trial %d: %v", seed, err)
		}
		if res.Found() {
			found++
		}
	}
	return float64(found) / float64(trials)
}

func TestUnrestrictedCompleteness(t *testing.T) {
	g, eps := farLowDegree(2)
	rate := completeness(t, func(seed uint64) Tester {
		return Unrestricted{Eps: eps, AvgDegree: g.AvgDegree(), Tag: fmt.Sprintf("t%d", seed)}
	}, g, partition.Disjoint{}, 4, 10)
	if rate < 0.8 {
		t.Fatalf("completeness %.2f < 0.8 on ε-far input", rate)
	}
}

func TestUnrestrictedCompletenessObliviousWithDuplication(t *testing.T) {
	g, eps := farLowDegree(3)
	rate := completeness(t, func(seed uint64) Tester {
		return Unrestricted{Eps: eps, Tag: fmt.Sprintf("t%d", seed)}
	}, g, partition.Duplicate{Q: 0.5}, 4, 8)
	if rate < 0.7 {
		t.Fatalf("oblivious completeness %.2f < 0.7", rate)
	}
}

func TestUnrestrictedOnDenseCore(t *testing.T) {
	// The hard case for naive sampling: all triangles at a few hubs.
	rng := rand.New(rand.NewSource(4))
	g := graph.PlantedDenseCore(graph.DenseCoreParams{N: 1200, Hubs: 4, Pairs: 60}, rng)
	eps := g.FarnessLowerBound()
	rate := completeness(t, func(seed uint64) Tester {
		return Unrestricted{Eps: eps, AvgDegree: g.AvgDegree(), Tag: fmt.Sprintf("t%d", seed)}
	}, g, partition.Disjoint{}, 4, 8)
	if rate < 0.7 {
		t.Fatalf("dense-core completeness %.2f < 0.7", rate)
	}
}

func TestBlackboardCompleteness(t *testing.T) {
	g, eps := farLowDegree(5)
	rate := completeness(t, func(seed uint64) Tester {
		return UnrestrictedBlackboard{Eps: eps, AvgDegree: g.AvgDegree(), Tag: fmt.Sprintf("t%d", seed)}
	}, g, partition.Disjoint{}, 4, 10)
	if rate < 0.8 {
		t.Fatalf("blackboard completeness %.2f < 0.8", rate)
	}
}

func TestBlackboardCheaperThanCoordinator(t *testing.T) {
	// Theorem 3.23: the blackboard edge phase avoids the per-player
	// duplication of posted arms; with heavy duplication and larger k the
	// blackboard run must be cheaper.
	g, eps := farLowDegree(6)
	const k = 8
	var coordBits, boardBits int64
	for seed := uint64(0); seed < 5; seed++ {
		top := topFor(t, g, partition.Duplicate{Q: 0.8}, k, seed+40)
		rc, err := Unrestricted{Eps: eps, AvgDegree: g.AvgDegree(), Tag: fmt.Sprintf("c%d", seed)}.RunOn(context.Background(), top)
		if err != nil {
			t.Fatal(err)
		}
		rb, err := UnrestrictedBlackboard{Eps: eps, AvgDegree: g.AvgDegree(), Tag: fmt.Sprintf("b%d", seed)}.RunOn(context.Background(), top)
		if err != nil {
			t.Fatal(err)
		}
		coordBits += rc.Stats.TotalBits
		boardBits += rb.Stats.TotalBits
	}
	if boardBits >= coordBits {
		t.Fatalf("blackboard (%d bits) not cheaper than coordinator (%d bits)", boardBits, coordBits)
	}
}

func TestSimLowCompleteness(t *testing.T) {
	g, eps := farLowDegree(7)
	rate := completeness(t, func(seed uint64) Tester {
		return SimLow{Eps: eps, AvgDegree: g.AvgDegree(), Delta: 0.1, Tag: fmt.Sprintf("t%d", seed)}
	}, g, partition.Disjoint{}, 4, 12)
	if rate < 0.7 {
		t.Fatalf("sim-low completeness %.2f < 0.7", rate)
	}
}

func TestSimHighCompleteness(t *testing.T) {
	g, eps := farHighDegree(8)
	rate := completeness(t, func(seed uint64) Tester {
		return SimHigh{Eps: eps, AvgDegree: g.AvgDegree(), Delta: 0.1, Tag: fmt.Sprintf("t%d", seed)}
	}, g, partition.Disjoint{}, 4, 12)
	if rate < 0.7 {
		t.Fatalf("sim-high completeness %.2f < 0.7", rate)
	}
}

func TestSimObliviousCompletenessBothRegimes(t *testing.T) {
	gLow, epsLow := farLowDegree(9)
	rate := completeness(t, func(seed uint64) Tester {
		return SimOblivious{Eps: epsLow, Delta: 0.1, Tag: fmt.Sprintf("l%d", seed)}
	}, gLow, partition.Disjoint{}, 4, 10)
	if rate < 0.7 {
		t.Fatalf("oblivious low-degree completeness %.2f < 0.7", rate)
	}
	gHigh, epsHigh := farHighDegree(10)
	rate = completeness(t, func(seed uint64) Tester {
		return SimOblivious{Eps: epsHigh, Delta: 0.1, Tag: fmt.Sprintf("h%d", seed)}
	}, gHigh, partition.Disjoint{}, 4, 10)
	if rate < 0.7 {
		t.Fatalf("oblivious high-degree completeness %.2f < 0.7", rate)
	}
}

func TestExactBaselineAlwaysCorrect(t *testing.T) {
	// Exact detection: finds a triangle iff one exists, on every seed.
	g, _ := farLowDegree(11)
	for seed := uint64(0); seed < 3; seed++ {
		top := topFor(t, g, partition.Duplicate{Q: 0.5}, 4, seed)
		res, err := ExactBaseline{}.RunOn(context.Background(), top)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Found() {
			t.Fatal("exact baseline missed a triangle")
		}
	}
	free := triangleFreeGraph(12)
	top := topFor(t, free, partition.Disjoint{}, 4, 1)
	res, err := ExactBaseline{}.RunOn(context.Background(), top)
	if err != nil {
		t.Fatal(err)
	}
	if res.Found() {
		t.Fatal("exact baseline hallucinated a triangle")
	}
}

func TestTestingCheaperThanExact(t *testing.T) {
	// §5 headline: the testers beat the Θ(k·nd·log n) exact exchange.
	g, eps := farLowDegree(13)
	top := topFor(t, g, partition.Disjoint{}, 6, 3)
	exact, err := ExactBaseline{}.RunOn(context.Background(), top)
	if err != nil {
		t.Fatal(err)
	}
	for _, tester := range []Tester{
		SimLow{Eps: eps, AvgDegree: g.AvgDegree(), Delta: 0.1},
		SimOblivious{Eps: eps, Delta: 0.1},
	} {
		res, err := tester.RunOn(context.Background(), top)
		if err != nil {
			t.Fatalf("%s: %v", tester.Name(), err)
		}
		if res.Stats.TotalBits >= exact.Stats.TotalBits {
			t.Fatalf("%s used %d bits ≥ exact %d", tester.Name(), res.Stats.TotalBits, exact.Stats.TotalBits)
		}
	}
}

func TestSimCapsBoundMessages(t *testing.T) {
	// Per-player message bits must respect cap·edgewidth (+ header).
	g, eps := farHighDegree(14)
	d := g.AvgDegree()
	s := SimHigh{Eps: eps, AvgDegree: d, Delta: 0.1}
	top := topFor(t, g, partition.All{}, 3, 9)
	res, err := s.RunOn(context.Background(), top)
	if err != nil {
		t.Fatal(err)
	}
	capBits := int64(s.Cap(g.N())*2*10 + 64) // cap edges × 2×⌈log₂ 900⌉=10 bits + header
	for j, bitsUsed := range res.Stats.PerPlayer {
		if bitsUsed > capBits {
			t.Fatalf("player %d used %d bits > cap %d", j, bitsUsed, capBits)
		}
	}
}

func TestSimultaneousIsOneRound(t *testing.T) {
	g, eps := farLowDegree(15)
	for _, tester := range []Tester{
		SimLow{Eps: eps, AvgDegree: g.AvgDegree(), Delta: 0.1},
		SimHigh{Eps: eps, AvgDegree: g.AvgDegree(), Delta: 0.1},
		SimOblivious{Eps: eps, Delta: 0.1},
		ExactBaseline{},
	} {
		top := topFor(t, g, partition.Disjoint{}, 4, 2)
		res, err := tester.RunOn(context.Background(), top)
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.Rounds != 1 {
			t.Fatalf("%s: %d rounds in the simultaneous model", tester.Name(), res.Stats.Rounds)
		}
		if res.Stats.DownBits != 0 {
			t.Fatalf("%s: referee talked back (%d bits)", tester.Name(), res.Stats.DownBits)
		}
	}
}

func TestParamValidation(t *testing.T) {
	g := graph.Complete(6)
	top := topFor(t, g, partition.Disjoint{}, 2, 1)
	ctx := context.Background()
	if _, err := (Unrestricted{Eps: 0}).RunOn(ctx, top); err == nil {
		t.Fatal("eps=0 accepted by unrestricted")
	}
	if _, err := (UnrestrictedBlackboard{Eps: 2}).RunOn(ctx, top); err == nil {
		t.Fatal("eps=2 accepted by blackboard")
	}
	if _, err := (SimHigh{Eps: 0.1}).RunOn(ctx, top); err == nil {
		t.Fatal("sim-high without degree accepted")
	}
	if _, err := (SimLow{Eps: 0.1}).RunOn(ctx, top); err == nil {
		t.Fatal("sim-low without degree accepted")
	}
	if _, err := (SimOblivious{Eps: -1}).RunOn(ctx, top); err == nil {
		t.Fatal("negative eps accepted by oblivious")
	}
	// ApproxDegree takes only α = 4^s; the three testers that share
	// UnrestrictedTunables must refuse any other ratio before they talk.
	for _, alpha := range []float64{0.5, 1, 2, 5} {
		tun := UnrestrictedTunables{DegreeAlpha: alpha}
		for _, p := range []Tester{
			Unrestricted{Eps: 0.2, AvgDegree: 5, Tunables: tun},
			UnrestrictedBlackboard{Eps: 0.2, AvgDegree: 5, Tunables: tun},
			NaiveUniform{Eps: 0.2, Tunables: tun},
		} {
			res, err := p.RunOn(ctx, top)
			if err == nil {
				t.Fatalf("%s accepted DegreeAlpha %v", p.Name(), alpha)
			}
			if res.Stats.TotalBits != 0 {
				t.Fatalf("%s spent %d bits before rejecting DegreeAlpha %v", p.Name(), res.Stats.TotalBits, alpha)
			}
		}
	}
	if _, err := (Unrestricted{Eps: 0.2, Tunables: UnrestrictedTunables{DegreeAlpha: 16}}).RunOn(ctx, top); err != nil {
		t.Fatalf("DegreeAlpha 16 rejected: %v", err)
	}
}

func TestEmptyGraph(t *testing.T) {
	g := graph.NewBuilder(50).Build()
	top := topFor(t, g, partition.Disjoint{}, 3, 1)
	ctx := context.Background()
	for _, tester := range []Tester{
		Unrestricted{Eps: 0.3},
		UnrestrictedBlackboard{Eps: 0.3},
		SimOblivious{Eps: 0.3, Delta: 0.1},
		ExactBaseline{},
	} {
		res, err := tester.RunOn(ctx, top)
		if err != nil {
			t.Fatalf("%s on empty graph: %v", tester.Name(), err)
		}
		if res.Found() {
			t.Fatalf("%s found a triangle in the empty graph", tester.Name())
		}
	}
}

func TestVerdictString(t *testing.T) {
	if TriangleFree.String() != "triangle-free" || FoundTriangle.String() != "found-triangle" {
		t.Fatal("verdict strings wrong")
	}
	if Verdict(0).String() == "" {
		t.Fatal("unknown verdict empty")
	}
}

func TestContextCancellation(t *testing.T) {
	g, eps := farLowDegree(16)
	top := topFor(t, g, partition.Disjoint{}, 3, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := (Unrestricted{Eps: eps}).RunOn(ctx, top); err == nil {
		t.Fatal("canceled unrestricted run succeeded")
	}
	if _, err := (UnrestrictedBlackboard{Eps: eps}).RunOn(ctx, top); err == nil {
		t.Fatal("canceled blackboard run succeeded")
	}
}

func TestUnrestrictedNoDupVariant(t *testing.T) {
	// Lemma 3.16: with the disjointness promise, the candidate phase uses
	// the deterministic degree protocol — completeness must hold and the
	// run must be substantially cheaper than the duplication-tolerant one.
	g, eps := farLowDegree(40)
	d := g.AvgDegree()
	var dupBits, nodupBits int64
	found := 0
	const trials = 6
	for seed := uint64(0); seed < trials; seed++ {
		top := topFor(t, g, partition.Disjoint{}, 4, seed+900)
		rn, err := Unrestricted{Eps: eps, AvgDegree: d, AssumeDisjoint: true,
			Tag: fmt.Sprintf("nd%d", seed)}.RunOn(context.Background(), top)
		if err != nil {
			t.Fatal(err)
		}
		if rn.Found() {
			found++
			if !g.IsTriangle(rn.Triangle.A, rn.Triangle.B, rn.Triangle.C) {
				t.Fatalf("phantom triangle %v", rn.Triangle)
			}
		}
		nodupBits += rn.Stats.TotalBits
		rd, err := Unrestricted{Eps: eps, AvgDegree: d,
			Tag: fmt.Sprintf("dd%d", seed)}.RunOn(context.Background(), top)
		if err != nil {
			t.Fatal(err)
		}
		dupBits += rd.Stats.TotalBits
	}
	if found < trials-2 {
		t.Fatalf("no-dup completeness %d/%d", found, trials)
	}
	if nodupBits*2 >= dupBits {
		t.Fatalf("no-dup variant not substantially cheaper: %d vs %d bits", nodupBits, dupBits)
	}
}
