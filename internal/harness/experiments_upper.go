package harness

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"tricomm/internal/blocks"
	"tricomm/internal/comm"
	"tricomm/internal/graph"
	"tricomm/internal/harness/runner"
	"tricomm/internal/partition"
	"tricomm/internal/protocol"
	"tricomm/internal/stats"
	"tricomm/internal/xrand"
)

// planFor declares the canonical sweep-point plan: each trial draws one
// graph with gen, splits it once with pt, and runs every mk-built tester
// over one shared topology, so per-player views are built once per trial
// instead of once per tester per trial. Trial seeds use the historical
// derivation (runner.TrialSeed), keeping tables bit-identical to the
// pre-runner sequential harness.
func planFor(cfg RunConfig, trials int, gen func(rng *rand.Rand) *graph.Graph,
	pt partition.Partitioner, k int, mks ...func(g *graph.Graph, trial int) runner.Tester) runner.Plan {
	return runner.Plan{
		Trials:       trials,
		Seed:         func(trial int) uint64 { return runner.TrialSeed(cfg.Seed, trial) },
		Gen:          gen,
		Partitioner:  pt,
		K:            k,
		Testers:      mks,
		IntraWorkers: cfg.IntraWorkers,
	}
}

// sweep executes one plan per sweep point over a single shared worker
// pool and folds each point's trials — in trial order, so aggregates are
// bit-identical at every worker count — into per-tester aggregators,
// indexed [point][tester].
func sweep(ctx context.Context, cfg RunConfig, plans []runner.Plan) ([][]*stats.TrialAggregator, error) {
	res, err := runner.RunPlans(ctx, cfg.jobs(), plans)
	if err != nil {
		return nil, err
	}
	out := make([][]*stats.TrialAggregator, len(plans))
	for pi, p := range plans {
		aggs := make([]*stats.TrialAggregator, len(p.Testers))
		for i := range aggs {
			aggs[i] = stats.NewTrialAggregator(p.Trials)
		}
		for _, row := range res[pi] {
			for i, r := range row {
				aggs[i].Add(r.Bits, r.Rounds, r.Found, r.Phases.All())
			}
		}
		out[pi] = aggs
	}
	return out, nil
}

func farGen(n int, d, eps float64) func(rng *rand.Rand) *graph.Graph {
	return func(rng *rand.Rand) *graph.Graph {
		return graph.FarWithDegree(graph.FarParams{N: n, D: d, Eps: eps}, rng).G
	}
}

// e1Unrestricted reproduces Table 1 row 1: the unrestricted upper bound
// Õ(k·(nd)^{1/4} + k²). The k²·polylog candidate phase dominates at
// feasible n (as the paper's own bound admits), so the table reports the
// candidate/edge phase split and fits the edge phase — the n-dependent
// term — against (nd)^{1/4}.
func e1Unrestricted() Experiment {
	return Experiment{
		ID:         "E1",
		Title:      "Unrestricted tester scaling (coordinator model)",
		PaperClaim: "Table 1 row 1 / Thm 3.20: Õ(k·(nd)^{1/4} + k²) bits, all degrees",
		Run: func(ctx context.Context, cfg RunConfig) (*Table, error) {
			t := &Table{
				Columns: []string{"n", "d", "k", "eps", "trials", "found", "rounds", "total_bits", "cand_bits", "edge_bits", "edge/(k·(nd)^1/4)"},
			}
			ns := []int{512, 1024, 2048, 4096}
			if cfg.Quick {
				ns = []int{512, 1024}
			}
			const d, eps, k = 8.0, 0.2, 4
			trials := cfg.trials(3)
			// The sweep: the n sweep at fixed k, then the k sweep at fixed
			// n (the additive k² term). All points feed one worker pool;
			// rows and fits fold in declaration order.
			type point struct {
				n, k int
				tag  string
			}
			var points []point
			for _, n := range ns {
				points = append(points, point{n, k, fmt.Sprintf("e1/%d", n)})
			}
			const kn = 1024
			for _, kk := range []int{2, 4, 8} {
				points = append(points, point{kn, kk, fmt.Sprintf("e1k/%d", kk)})
			}
			plans := make([]runner.Plan, len(points))
			for pi, p := range points {
				plans[pi] = planFor(cfg, trials, farGen(p.n, d, eps), partition.Disjoint{}, p.k,
					func(g *graph.Graph, trial int) runner.Tester {
						return protocol.Unrestricted{Eps: eps, AvgDegree: g.AvgDegree(),
							Tag: fmt.Sprintf("%s/%d", p.tag, trial)}
					})
			}
			aggs, err := sweep(ctx, cfg, plans)
			if err != nil {
				return nil, err
			}
			var xs, ys []float64
			for pi, p := range points {
				a := aggs[pi][0]
				s := a.Summary()
				edge := a.PhaseMeans["edges"]
				norm := edge / (float64(p.k) * math.Pow(float64(p.n)*d, 0.25))
				t.AddRow(p.n, d, p.k, eps, trials, a.Found, a.MeanRounds, s.Mean, a.PhaseMeans["candidates"], edge, norm)
				if pi < len(ns) {
					xs = append(xs, float64(p.n)*d)
					ys = append(ys, edge+1)
				}
			}
			if fit, err := stats.FitPower(xs, ys); err == nil {
				t.AddNote("edge-phase fit vs nd: %s (paper predicts exponent 0.25)", fit)
			}
			t.AddNote("candidate phase is the k²·polylog additive term and dominates at these n, as the bound allows")
			return t, nil
		},
	}
}

// e2aSimLow reproduces Table 1 row 2, low-degree side: Õ(k·√n).
func e2aSimLow() Experiment {
	return Experiment{
		ID:         "E2a",
		Title:      "Simultaneous tester, low degree d = O(√n)",
		PaperClaim: "Table 1 row 2 / Thm 3.26: Õ(k·√n) bits for d = O(√n)",
		Run: func(ctx context.Context, cfg RunConfig) (*Table, error) {
			t := &Table{Columns: []string{"n", "d", "k", "trials", "found", "bits", "bits/(k·√n)", "bits/(k·√n·lg n)"}}
			ns := []int{1024, 4096, 16384, 65536}
			if cfg.Quick {
				ns = []int{1024, 4096}
			}
			const d, eps, k = 8.0, 0.2, 8
			trials := cfg.trials(3)
			plans := make([]runner.Plan, len(ns))
			for ni, n := range ns {
				plans[ni] = planFor(cfg, trials, farGen(n, d, eps), partition.Disjoint{}, k,
					func(g *graph.Graph, trial int) runner.Tester {
						return protocol.SimLow{Eps: eps, AvgDegree: g.AvgDegree(),
							Tag: fmt.Sprintf("e2a/%d/%d", n, trial)}
					})
			}
			aggs, err := sweep(ctx, cfg, plans)
			if err != nil {
				return nil, err
			}
			var xs, ys []float64
			for ni, n := range ns {
				a := aggs[ni][0]
				s := a.Summary()
				norm := s.Mean / (float64(k) * math.Sqrt(float64(n)))
				t.AddRow(n, d, k, trials, a.Found, s.Mean, norm, norm/math.Log2(float64(n)))
				xs = append(xs, float64(n))
				ys = append(ys, s.Mean)
			}
			if fit, err := stats.FitPower(xs, ys); err == nil {
				t.AddNote("fit bits vs n: %s (paper predicts exponent 0.5 up to the Õ log factors; the lg-normalized column is ~constant)", fit)
			}
			return t, nil
		},
	}
}

// e2bSimHigh reproduces Table 1 row 2, high-degree side: Õ(k·(nd)^{1/3}).
func e2bSimHigh() Experiment {
	return Experiment{
		ID:         "E2b",
		Title:      "Simultaneous tester, high degree d = Ω(√n)",
		PaperClaim: "Table 1 row 2 / Thm 3.24: Õ(k·(nd)^{1/3}) bits for d = Ω(√n)",
		Run: func(ctx context.Context, cfg RunConfig) (*Table, error) {
			t := &Table{Columns: []string{"n", "d", "k", "trials", "found", "bits", "bits/(k·(nd)^1/3)", "bits/(k·(nd)^1/3·lg n)"}}
			ns := []int{1024, 4096, 16384}
			if cfg.Quick {
				ns = []int{1024, 4096}
			}
			const eps, k = 0.2, 8
			trials := cfg.trials(3)
			degree := func(n int) float64 { return math.Sqrt(float64(n)) * 2 } // d = 2√n, inside the regime
			plans := make([]runner.Plan, len(ns))
			for ni, n := range ns {
				plans[ni] = planFor(cfg, trials, farGen(n, degree(n), eps), partition.Disjoint{}, k,
					func(g *graph.Graph, trial int) runner.Tester {
						return protocol.SimHigh{Eps: eps, AvgDegree: g.AvgDegree(),
							Tag: fmt.Sprintf("e2b/%d/%d", n, trial)}
					})
			}
			aggs, err := sweep(ctx, cfg, plans)
			if err != nil {
				return nil, err
			}
			var xs, ys []float64
			for ni, n := range ns {
				d := degree(n)
				a := aggs[ni][0]
				s := a.Summary()
				norm := s.Mean / (float64(k) * math.Cbrt(float64(n)*d))
				t.AddRow(n, d, k, trials, a.Found, s.Mean, norm, norm/math.Log2(float64(n)))
				xs = append(xs, float64(n)*d)
				ys = append(ys, s.Mean)
			}
			if fit, err := stats.FitPower(xs, ys); err == nil {
				t.AddNote("fit bits vs nd: %s (paper predicts exponent 1/3 ≈ 0.333 up to Õ log factors; the lg-normalized column is ~constant)", fit)
			}
			return t, nil
		},
	}
}

// e2cOblivious reproduces §3.4.3: one degree-oblivious simultaneous
// protocol matching both regimes up to polylog factors.
func e2cOblivious() Experiment {
	return Experiment{
		ID:         "E2c",
		Title:      "Degree-oblivious simultaneous tester vs degree-aware",
		PaperClaim: "Thm 3.32 / Alg 11: one protocol, Õ(k√n) for d=O(√n) and Õ(k(nd)^{1/3}) for d=Ω(√n), d unknown",
		Run: func(ctx context.Context, cfg RunConfig) (*Table, error) {
			t := &Table{Columns: []string{"regime", "n", "d", "k", "trials", "found", "obl_bits", "aware_bits", "ratio"}}
			const eps, k = 0.2, 8
			trials := cfg.trials(3)
			type pt struct {
				regime string
				n      int
				d      float64
			}
			points := []pt{
				{"low", 4096, 8},
				{"low", 16384, 8},
				{"high", 4096, 128},
				{"high", 16384, 256},
			}
			if cfg.Quick {
				points = []pt{{"low", 4096, 8}, {"high", 4096, 128}}
			}
			plans := make([]runner.Plan, len(points))
			for pi, p := range points {
				// One topology per trial serves both testers.
				plans[pi] = planFor(cfg, trials, farGen(p.n, p.d, eps), partition.Disjoint{}, k,
					func(g *graph.Graph, trial int) runner.Tester {
						return protocol.SimOblivious{Eps: eps,
							Tag: fmt.Sprintf("e2c/%s/%d/%d", p.regime, p.n, trial)}
					},
					func(g *graph.Graph, trial int) runner.Tester {
						if p.regime == "low" {
							return protocol.SimLow{Eps: eps, AvgDegree: g.AvgDegree(),
								Tag: fmt.Sprintf("e2ca/%d/%d", p.n, trial)}
						}
						return protocol.SimHigh{Eps: eps, AvgDegree: g.AvgDegree(),
							Tag: fmt.Sprintf("e2ca/%d/%d", p.n, trial)}
					})
			}
			aggs, err := sweep(ctx, cfg, plans)
			if err != nil {
				return nil, err
			}
			for pi, p := range points {
				so, sa := aggs[pi][0].Summary(), aggs[pi][1].Summary()
				t.AddRow(p.regime, p.n, p.d, k, trials, aggs[pi][0].Found, so.Mean, sa.Mean, so.Mean/sa.Mean)
			}
			t.AddNote("oblivious overhead over degree-aware is the paper's O(log k · log n)-ish factor")
			return t, nil
		},
	}
}

// e7TestingVsExact reproduces the §5 headline claim.
func e7TestingVsExact() Experiment {
	return Experiment{
		ID:         "E7",
		Title:      "Property testing vs exact detection",
		PaperClaim: "§5 vs [38]: exact needs Ω(k·nd) bits; testing needs Õ(k·(nd)^{1/4}+k²) / Õ(k√n)",
		Run: func(ctx context.Context, cfg RunConfig) (*Table, error) {
			t := &Table{Columns: []string{"n", "d", "k", "exact_bits", "unrestricted_bits", "sim_obl_bits", "exact/unrestricted", "exact/sim"}}
			const eps = 0.2
			trials := cfg.trials(3)
			points := [][2]int{{2048, 16}, {4096, 16}}
			if cfg.Quick {
				points = [][2]int{{2048, 16}}
			}
			plans := make([]runner.Plan, len(points))
			for pi, p := range points {
				n, d := p[0], float64(p[1])
				// All three testers share each trial's instance and topology.
				plans[pi] = planFor(cfg, trials, farGen(n, d, eps), partition.Disjoint{}, 4,
					func(g *graph.Graph, trial int) runner.Tester { return protocol.ExactBaseline{} },
					func(g *graph.Graph, trial int) runner.Tester {
						return protocol.Unrestricted{Eps: eps, AvgDegree: g.AvgDegree(),
							Tag: fmt.Sprintf("e7u/%d/%d", n, trial)}
					},
					func(g *graph.Graph, trial int) runner.Tester {
						return protocol.SimOblivious{Eps: eps,
							Tag: fmt.Sprintf("e7s/%d/%d", n, trial)}
					})
			}
			aggs, err := sweep(ctx, cfg, plans)
			if err != nil {
				return nil, err
			}
			for pi, p := range points {
				se, su, ss := aggs[pi][0].Summary(), aggs[pi][1].Summary(), aggs[pi][2].Summary()
				t.AddRow(p[0], p[1], 4, se.Mean, su.Mean, ss.Mean, se.Mean/su.Mean, se.Mean/ss.Mean)
			}
			t.AddNote("testing wins and its advantage grows with nd; exact cost is Θ(k·nd·log n) by construction")
			return t, nil
		},
	}
}

// e8Blackboard reproduces Thm 3.23: blackboard saves a factor ~k on the
// edge phase.
func e8Blackboard() Experiment {
	return Experiment{
		ID:         "E8",
		Title:      "Coordinator vs blackboard unrestricted tester",
		PaperClaim: "Thm 3.23: blackboard model gives Õ((nd)^{1/4} + k²) (factor-k saving on edges)",
		Run: func(ctx context.Context, cfg RunConfig) (*Table, error) {
			t := &Table{Columns: []string{"k", "n", "d", "coord_bits", "board_bits", "coord/board"}}
			const n, d, eps = 1024, 8.0, 0.2
			trials := cfg.trials(3)
			ks := []int{2, 4, 8, 16}
			if cfg.Quick {
				ks = []int{2, 8}
			}
			plans := make([]runner.Plan, len(ks))
			for ki, k := range ks {
				// Coordinator and blackboard variants share each trial's
				// instance and topology.
				plans[ki] = planFor(cfg, trials, farGen(n, d, eps), partition.Duplicate{Q: 0.5}, k,
					func(g *graph.Graph, trial int) runner.Tester {
						return protocol.Unrestricted{Eps: eps, AvgDegree: g.AvgDegree(),
							Tag: fmt.Sprintf("e8c/%d/%d", k, trial)}
					},
					func(g *graph.Graph, trial int) runner.Tester {
						return protocol.UnrestrictedBlackboard{Eps: eps, AvgDegree: g.AvgDegree(),
							Tag: fmt.Sprintf("e8b/%d/%d", k, trial)}
					})
			}
			aggs, err := sweep(ctx, cfg, plans)
			if err != nil {
				return nil, err
			}
			for ki, k := range ks {
				sc, sb := aggs[ki][0].Summary(), aggs[ki][1].Summary()
				t.AddRow(k, n, d, sc.Mean, sb.Mean, sc.Mean/sb.Mean)
			}
			t.AddNote("the coordinator/blackboard ratio grows with k, as predicted")
			return t, nil
		},
	}
}

// e9ApproxDegree reproduces the §3.1 building-block costs.
func e9ApproxDegree() Experiment {
	return Experiment{
		ID:         "E9",
		Title:      "Degree approximation: duplication vs no-duplication",
		PaperClaim: "Thm 3.1: Õ(k) with duplication; Lemma 3.2: O(k·log log d) without",
		Run: func(ctx context.Context, cfg RunConfig) (*Table, error) {
			t := &Table{Columns: []string{"true_deg", "k", "dup_bits", "dup_est", "nodup_bits", "nodup_est"}}
			rng := rand.New(rand.NewSource(int64(cfg.Seed) + 1))
			g := graph.BucketStress(graph.BucketStressParams{N: 4000, Levels: 5, HubsPer: 2, TriLevel: 1}, rng)
			const k = 6
			// One hub per level.
			targets := map[int]int{} // degree -> vertex
			for v := 0; v < g.N(); v++ {
				d := g.Degree(v)
				if d >= 2 {
					if _, ok := targets[d]; !ok {
						targets[d] = v
					}
				}
			}
			degs := []int{2, 6, 18, 54, 162}
			type row struct {
				ok                 bool
				dupBits, nodupBits int64
				dupEst, nodupEst   float64
			}
			rows, err := runner.Map(ctx, cfg.jobs(), len(degs), func(ctx context.Context, di int) (row, error) {
				wantDeg := degs[di]
				v, ok := targets[wantDeg]
				if !ok {
					return row{}, nil
				}
				var r row
				r.ok = true
				shared := xrand.New(cfg.Seed + uint64(wantDeg))
				// Duplication-tolerant estimator on a duplicated partition.
				pd := partition.Duplicate{Q: 0.5}.Split(g, k, shared)
				top, err := comm.NewTopology(g.N(), pd.Inputs, shared)
				if err != nil {
					return row{}, err
				}
				_, err = comm.RunOn(ctx, top,
					func(ctx context.Context, c *comm.Coordinator) error {
						est, err := blocks.ApproxDegree(ctx, c, v, blocks.DefaultApprox())
						if err != nil {
							return err
						}
						r.dupEst = est
						r.dupBits = c.Stats().TotalBits
						return nil
					}, blocks.Serve("e9"))
				if err != nil {
					return row{}, err
				}
				// No-duplication estimator on a disjoint partition.
				pn := partition.Disjoint{}.Split(g, k, shared)
				if top, err = comm.NewTopology(g.N(), pn.Inputs, shared); err != nil {
					return row{}, err
				}
				_, err = comm.RunOn(ctx, top,
					func(ctx context.Context, c *comm.Coordinator) error {
						est, err := blocks.ApproxDegreesNoDup(ctx, c, []int{v}, 3)
						if err != nil {
							return err
						}
						r.nodupEst = est[0]
						r.nodupBits = c.Stats().TotalBits
						return nil
					}, blocks.Serve("e9"))
				if err != nil {
					return row{}, err
				}
				return r, nil
			})
			if err != nil {
				return nil, err
			}
			for di, r := range rows {
				if !r.ok {
					continue
				}
				t.AddRow(degs[di], k, r.dupBits, r.dupEst, r.nodupBits, r.nodupEst)
			}
			t.AddNote("no-dup costs O(k·log log d) bits and is deterministic; dup pays the sampling rounds")
			return t, nil
		},
	}
}

// e10NoDup reproduces Corollaries 3.25/3.27: without duplication the
// simultaneous protocols save a factor of k in total bits (w.h.p.).
func e10NoDup() Experiment {
	return Experiment{
		ID:         "E10",
		Title:      "Simultaneous testers: duplication vs none",
		PaperClaim: "Cor 3.25/3.27: total cost O((nd)^{1/3}) resp. O(√n) without duplication (k-fold saving)",
		Run: func(ctx context.Context, cfg RunConfig) (*Table, error) {
			t := &Table{Columns: []string{"protocol", "partition", "n", "d", "k", "total_bits", "max_player_bits"}}
			const n, eps, k = 4096, 0.2, 8
			trials := cfg.trials(3)
			type block struct {
				proto string
				d     float64
				pt    partition.Partitioner
			}
			var bs []block
			for _, tc := range []struct {
				proto string
				d     float64
			}{{"sim-low", 8}, {"sim-high", 128}} {
				for _, pt := range []partition.Partitioner{partition.Disjoint{}, partition.All{}} {
					bs = append(bs, block{tc.proto, tc.d, pt})
				}
			}
			plans := make([]runner.Plan, len(bs))
			for bi, b := range bs {
				plans[bi] = runner.Plan{
					Trials:       trials,
					IntraWorkers: cfg.IntraWorkers,
					Seed:         func(trial int) uint64 { return cfg.Seed*31 + uint64(trial) },
					Gen: func(rng *rand.Rand) *graph.Graph {
						return graph.FarWithDegree(graph.FarParams{N: n, D: b.d, Eps: eps}, rng).G
					},
					Partitioner: b.pt,
					K:           k,
					Testers: []func(g *graph.Graph, trial int) runner.Tester{
						func(g *graph.Graph, trial int) runner.Tester {
							if b.proto == "sim-low" {
								return protocol.SimLow{Eps: eps, AvgDegree: g.AvgDegree(),
									Tag: fmt.Sprintf("e10/%s/%d", b.pt.Name(), trial)}
							}
							return protocol.SimHigh{Eps: eps, AvgDegree: g.AvgDegree(),
								Tag: fmt.Sprintf("e10/%s/%d", b.pt.Name(), trial)}
						},
					},
				}
			}
			res, err := runner.RunPlans(ctx, cfg.jobs(), plans)
			if err != nil {
				return nil, err
			}
			for bi, b := range bs {
				var totals, maxs []float64
				for _, trial := range res[bi] {
					totals = append(totals, float64(trial[0].Bits))
					maxs = append(maxs, float64(trial[0].MaxPlayerBits))
				}
				t.AddRow(b.proto, b.pt.Name(), n, b.d, k,
					stats.Summarize(totals).Mean, stats.Summarize(maxs).Mean)
			}
			t.AddNote("disjoint total ≈ all-duplicated total / k (each sampled edge sent once instead of k times)")
			return t, nil
		},
	}
}
