package tricomm

// Benchmark harness: one benchmark per row of the paper's Table 1 (its
// only results exhibit; there are no figures) plus the in-text claims.
// Each benchmark runs the protocol end to end on a fresh seeded instance
// per iteration and reports the measured communication as the custom
// metric "bits/op" — wall-clock time is simulation overhead, communication
// is the quantity the paper bounds. cmd/benchtable regenerates the full
// sweep tables recorded in EXPERIMENTS.md.

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"tricomm/internal/blocks"
	"tricomm/internal/comm"
	"tricomm/internal/lowerbound"
	"tricomm/internal/partition"
	"tricomm/internal/protocol"
	"tricomm/internal/streamred"
	"tricomm/internal/xrand"
)

// benchCluster builds a fresh ε-far instance and cluster per iteration.
func benchCluster(b *testing.B, n int, d float64, k int, seed uint64) *Cluster {
	b.Helper()
	g, _ := FarGraph(n, d, 0.2, int64(seed))
	cluster, err := Split(g, k, SplitDisjoint, seed)
	if err != nil {
		b.Fatal(err)
	}
	return cluster
}

func reportBits(b *testing.B, totalBits int64) {
	b.Helper()
	b.ReportMetric(float64(totalBits)/float64(b.N), "bits/op")
}

// BenchmarkTable1_Unrestricted measures row 1: the interactive tester,
// Õ(k·(nd)^{1/4} + k²) bits.
func BenchmarkTable1_Unrestricted(b *testing.B) {
	b.ReportAllocs()
	const n, d, k = 1024, 8.0, 4
	var bits int64
	for i := 0; i < b.N; i++ {
		cluster := benchCluster(b, n, d, k, uint64(i))
		rep, err := cluster.Test(context.Background(), Options{
			Protocol: Interactive, Eps: 0.2, AvgDegree: d,
		})
		if err != nil {
			b.Fatal(err)
		}
		bits += rep.Bits
	}
	reportBits(b, bits)
}

// BenchmarkTable1_SimLow measures row 2 (low-degree side): Õ(k·√n).
func BenchmarkTable1_SimLow(b *testing.B) {
	b.ReportAllocs()
	const n, d, k = 4096, 8.0, 8
	var bits int64
	for i := 0; i < b.N; i++ {
		cluster := benchCluster(b, n, d, k, uint64(i))
		rep, err := cluster.Test(context.Background(), Options{
			Protocol: SimultaneousLow, Eps: 0.2, AvgDegree: d,
		})
		if err != nil {
			b.Fatal(err)
		}
		bits += rep.Bits
	}
	reportBits(b, bits)
}

// BenchmarkTable1_SimHigh measures row 2 (high-degree side):
// Õ(k·(nd)^{1/3}).
func BenchmarkTable1_SimHigh(b *testing.B) {
	b.ReportAllocs()
	const n, k = 4096, 8
	d := 2 * math.Sqrt(n)
	var bits int64
	for i := 0; i < b.N; i++ {
		cluster := benchCluster(b, n, d, k, uint64(i))
		rep, err := cluster.Test(context.Background(), Options{
			Protocol: SimultaneousHigh, Eps: 0.2, AvgDegree: d,
		})
		if err != nil {
			b.Fatal(err)
		}
		bits += rep.Bits
	}
	reportBits(b, bits)
}

// BenchmarkTable1_SimOblivious measures §3.4.3: the degree-oblivious
// one-round tester.
func BenchmarkTable1_SimOblivious(b *testing.B) {
	b.ReportAllocs()
	const n, d, k = 4096, 8.0, 8
	var bits int64
	for i := 0; i < b.N; i++ {
		cluster := benchCluster(b, n, d, k, uint64(i))
		rep, err := cluster.Test(context.Background(), Options{
			Protocol: SimultaneousOblivious, Eps: 0.2,
		})
		if err != nil {
			b.Fatal(err)
		}
		bits += rep.Bits
	}
	reportBits(b, bits)
}

// BenchmarkTable1_OneWayProbe measures rows 3/5: the one-way star
// strategy at the n^{1/4}-scale budget on µ (reported metric: success
// rate at that budget).
func BenchmarkTable1_OneWayProbe(b *testing.B) {
	b.ReportAllocs()
	const nPart, gamma, budget = 250, 2.0, 160
	wins := 0
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewSource(int64(i)))
		inst := lowerbound.SampleMu(lowerbound.MuParams{NPart: nPart, Gamma: gamma}, rng)
		res, err := lowerbound.OneWayProbe{BudgetBits: budget}.Run(inst, xrand.New(uint64(i)))
		if err != nil {
			b.Fatal(err)
		}
		if res.Success {
			wins++
		}
	}
	b.ReportMetric(float64(wins)/float64(b.N), "success-rate")
	b.ReportMetric(budget, "budget-bits")
}

// BenchmarkTable1_SimProbe measures row 4: the simultaneous window
// strategy at the same budget, whose success rate is far lower — the
// measured separation.
func BenchmarkTable1_SimProbe(b *testing.B) {
	b.ReportAllocs()
	const nPart, gamma, budget = 250, 2.0, 160
	wins := 0
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewSource(int64(i)))
		inst := lowerbound.SampleMu(lowerbound.MuParams{NPart: nPart, Gamma: gamma}, rng)
		res, err := lowerbound.SimProbe{BudgetBits: budget, Gamma: gamma}.Run(inst, xrand.New(uint64(i)))
		if err != nil {
			b.Fatal(err)
		}
		if res.Success {
			wins++
		}
	}
	b.ReportMetric(float64(wins)/float64(b.N), "success-rate")
	b.ReportMetric(budget, "budget-bits")
}

// BenchmarkTable1_Symmetrization measures the Theorem 4.15 accounting:
// derived one-way cost ≈ (2/k)·simultaneous cost.
func BenchmarkTable1_Symmetrization(b *testing.B) {
	b.ReportAllocs()
	const k = 8
	rng := rand.New(rand.NewSource(5))
	inst := lowerbound.SampleMu(lowerbound.MuParams{NPart: 80, Gamma: 2}, rng)
	var derived, total int64
	for i := 0; i < b.N; i++ {
		emb := lowerbound.Embed3ToK(inst.Alice, inst.Bob, inst.Charlie, k, rng)
		top, err := comm.NewTopology(inst.N(), emb.Inputs, xrand.New(uint64(i)))
		if err != nil {
			b.Fatal(err)
		}
		res, err := protocol.SimLow{Eps: 0.1, AvgDegree: inst.G.AvgDegree(), Delta: 0.1,
			Tag: fmt.Sprintf("bench/%d", i)}.RunOn(context.Background(), top)
		if err != nil {
			b.Fatal(err)
		}
		derived += lowerbound.SimulateOneWayCost(res.Stats.PerPlayer, emb)
		total += res.Stats.TotalBits
	}
	reportBits(b, total)
	if total > 0 {
		b.ReportMetric(float64(derived)/float64(total), "derived/total")
		b.ReportMetric(2.0/k, "predicted-2/k")
	}
}

// BenchmarkTable1_BHM measures row 6: solving Boolean Hidden Matching
// through the reduction with the Õ(k√n) tester.
func BenchmarkTable1_BHM(b *testing.B) {
	b.ReportAllocs()
	const nBHM = 256
	var bits int64
	correct := 0
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewSource(int64(i)))
		allZero := i%2 == 0
		inst := lowerbound.SampleBHM(nBHM, allZero, rng)
		red := lowerbound.Reduce(inst)
		top, err := comm.NewTopology(red.G.N(), red.Inputs(), xrand.New(uint64(i)))
		if err != nil {
			b.Fatal(err)
		}
		res, err := protocol.SimLow{Eps: 0.2, AvgDegree: red.G.AvgDegree(), Delta: 0.1,
			Tag: fmt.Sprintf("bhm/%d", i)}.RunOn(context.Background(), top)
		if err != nil {
			b.Fatal(err)
		}
		bits += res.Stats.TotalBits
		if res.Found() == allZero {
			correct++
		}
	}
	reportBits(b, bits)
	b.ReportMetric(float64(correct)/float64(b.N), "decode-accuracy")
}

// BenchmarkSummary_TestingVsExact measures the §5 headline: testing vs
// exact detection on the same instances.
func BenchmarkSummary_TestingVsExact(b *testing.B) {
	b.ReportAllocs()
	const n, d, k = 2048, 16.0, 4
	var exactBits, testBits int64
	for i := 0; i < b.N; i++ {
		cluster := benchCluster(b, n, d, k, uint64(i))
		ctx := context.Background()
		ex, err := cluster.Test(ctx, Options{Protocol: Exact})
		if err != nil {
			b.Fatal(err)
		}
		te, err := cluster.Test(ctx, Options{Protocol: SimultaneousOblivious, Eps: 0.2})
		if err != nil {
			b.Fatal(err)
		}
		exactBits += ex.Bits
		testBits += te.Bits
	}
	reportBits(b, testBits)
	if testBits > 0 {
		b.ReportMetric(float64(exactBits)/float64(testBits), "exact/testing")
	}
}

// BenchmarkAblation_Blackboard measures Theorem 3.23: the blackboard
// variant against the coordinator-model interactive tester.
func BenchmarkAblation_Blackboard(b *testing.B) {
	b.ReportAllocs()
	const n, d, k = 1024, 8.0, 8
	var coordBits, boardBits int64
	for i := 0; i < b.N; i++ {
		g, _ := FarGraph(n, d, 0.2, int64(i))
		cluster, err := Split(g, k, SplitDuplicate, uint64(i))
		if err != nil {
			b.Fatal(err)
		}
		ctx := context.Background()
		rc, err := cluster.Test(ctx, Options{Protocol: Interactive, Eps: 0.2, AvgDegree: d})
		if err != nil {
			b.Fatal(err)
		}
		rb, err := cluster.Test(ctx, Options{Protocol: InteractiveBlackboard, Eps: 0.2, AvgDegree: d})
		if err != nil {
			b.Fatal(err)
		}
		coordBits += rc.Bits
		boardBits += rb.Bits
	}
	reportBits(b, boardBits)
	if boardBits > 0 {
		b.ReportMetric(float64(coordBits)/float64(boardBits), "coord/board")
	}
}

// BenchmarkBlocks_ApproxDegree measures the Theorem 3.1 building block
// under heavy duplication: blocks.ApproxDegree on a fixed vertex set of a
// Duplicate{Q: 0.5} split, run over one topology the way E9 runs it.
func BenchmarkBlocks_ApproxDegree(b *testing.B) {
	b.ReportAllocs()
	const n, k = 2048, 8
	g := RandomGraph(n, 32, 3)
	shared := xrand.New(11)
	top, err := comm.NewTopology(n, partition.Duplicate{Q: 0.5}.Split(g, k, shared).Inputs, shared)
	if err != nil {
		b.Fatal(err)
	}
	var vertices []int
	for v := 0; v < n; v += n / 16 {
		vertices = append(vertices, v)
	}
	ctx := context.Background()
	var bits int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := comm.RunOn(ctx, top, func(ctx context.Context, c *comm.Coordinator) error {
			for _, v := range vertices {
				if _, err := blocks.ApproxDegree(ctx, c, v, blocks.DefaultApprox()); err != nil {
					return err
				}
			}
			return nil
		}, blocks.Serve("bench"))
		if err != nil {
			b.Fatal(err)
		}
		bits += st.TotalBits
	}
	reportBits(b, bits)
}

// BenchmarkAblation_NoDup measures Corollaries 3.25/3.27: disjoint inputs
// vs maximal duplication for the one-round testers.
func BenchmarkAblation_NoDup(b *testing.B) {
	b.ReportAllocs()
	const n, d, k = 4096, 8.0, 8
	g, _ := FarGraph(n, d, 0.2, 7)
	var dupBits, disBits int64
	for i := 0; i < b.N; i++ {
		ctx := context.Background()
		cd, err := Split(g, k, SplitAll, uint64(i))
		if err != nil {
			b.Fatal(err)
		}
		rd, err := cd.Test(ctx, Options{Protocol: SimultaneousLow, Eps: 0.2, AvgDegree: d})
		if err != nil {
			b.Fatal(err)
		}
		cx, err := Split(g, k, SplitDisjoint, uint64(i))
		if err != nil {
			b.Fatal(err)
		}
		rx, err := cx.Test(ctx, Options{Protocol: SimultaneousLow, Eps: 0.2, AvgDegree: d})
		if err != nil {
			b.Fatal(err)
		}
		dupBits += rd.Bits
		disBits += rx.Bits
	}
	reportBits(b, disBits)
	if disBits > 0 {
		b.ReportMetric(float64(dupBits)/float64(disBits), "dup/disjoint")
	}
}

// BenchmarkSessionReuse measures the cached-view win for a tester that
// reads the players' views: repeated Test calls against one cluster
// through a Session (each view built at its first read, then reused)
// versus rebuilding every player view per call (the same tester's RunOn
// over a fresh comm.Topology each iteration). The blackboard tester reads
// every player's view; protocol work and communication are identical in
// both arms, so the gap is view construction. The one-round testers read
// no view, so neither arm would build one for them.
func BenchmarkSessionReuse(b *testing.B) {
	b.ReportAllocs()
	const n, d, k = 16384, 8.0, 8
	g, _ := FarGraph(n, d, 0.2, 3)
	opts := Options{Protocol: InteractiveBlackboard, Eps: 0.2, AvgDegree: d}
	ctx := context.Background()

	b.Run("cached-views", func(b *testing.B) {
		b.ReportAllocs()
		cluster, err := Split(g, k, SplitDisjoint, 5)
		if err != nil {
			b.Fatal(err)
		}
		s, err := cluster.Session(opts)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.Test(ctx); err != nil { // builds the views
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.Test(ctx); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("rebuild-views", func(b *testing.B) {
		b.ReportAllocs()
		cluster, err := Split(g, k, SplitDisjoint, 5)
		if err != nil {
			b.Fatal(err)
		}
		p, err := opts.withDefaults().runner()
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			top, err := comm.NewTopology(cluster.N(), cluster.inputs, cluster.shared)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := p.RunOn(ctx, top); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkStreaming_Probe measures the §4.2.2 corollary: success of the
// space-bounded streaming detector at the n^{1/4} space scale.
func BenchmarkStreaming_Probe(b *testing.B) {
	b.ReportAllocs()
	const nPart, gamma, capArms = 250, 2.0, 32
	wins := 0
	var space int
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewSource(int64(i)))
		inst := lowerbound.SampleMu(lowerbound.MuParams{NPart: nPart, Gamma: gamma}, rng)
		det := streamred.NewStarDetector(xrand.New(uint64(i)), inst.NPart, capArms, inst.N())
		space = det.SpaceBits()
		stream := streamred.Stream{}
		stream.Edges = append(stream.Edges, inst.Alice...)
		stream.Edges = append(stream.Edges, inst.Bob...)
		stream.Edges = append(stream.Edges, inst.Charlie...)
		if e, ok := streamred.Drive(det, stream); ok && inst.IsValidOutput(e) {
			wins++
		}
	}
	b.ReportMetric(float64(wins)/float64(b.N), "success-rate")
	b.ReportMetric(float64(space), "space-bits")
}
