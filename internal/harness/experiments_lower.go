package harness

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"tricomm/internal/comm"
	"tricomm/internal/harness/runner"
	"tricomm/internal/lowerbound"
	"tricomm/internal/protocol"
	"tricomm/internal/stats"
	"tricomm/internal/streamred"
	"tricomm/internal/xrand"
)

// buildRegistry assembles all experiments (called from harness.go's
// package-level variable initializer).
func buildRegistry() []Experiment {
	return []Experiment{
		e1Unrestricted(),
		e2aSimLow(),
		e2bSimHigh(),
		e2cOblivious(),
		e3OneWayProbe(),
		e4SimProbe(),
		e5Symmetrization(),
		e6BHM(),
		e7TestingVsExact(),
		e8Blackboard(),
		e9ApproxDegree(),
		e10NoDup(),
		e11Streaming(),
		e12Behrend(),
		e13Bucketing(),
		e14ScenarioSweep(),
		e15FaultResilience(),
	}
}

// probeCurves runs a probe strategy over a (nPart, budget, trial) grid —
// one success-vs-budget curve per nPart — flattening the whole grid onto
// ONE worker pool (nested pools would multiply widths). Every cell's
// seed depends only on its coordinates, and the per-budget fold walks
// trials in order, so the curves are bit-identical at every worker
// count. Result is indexed [nPart][budget].
func probeCurves(ctx context.Context, cfg RunConfig, nParts []int, gamma float64, budgets []int, trials int,
	run func(inst lowerbound.MuInstance, shared *xrand.Shared, budget int) (lowerbound.ProbeResult, error),
) ([][]*stats.RateAggregator, error) {
	type cell struct {
		success bool
		bits    float64
	}
	perPart := len(budgets) * trials
	cells, err := runner.MapArena(ctx, cfg.jobs(), len(nParts)*perPart, func(_ context.Context, a *runner.Arena, i int) (cell, error) {
		nPart := nParts[i/perPart]
		bi, trial := (i%perPart)/trials, i%trials
		seed := cfg.Seed*104729 + uint64(trial)*31 + uint64(nPart)
		rng := a.Rand(int64(seed))
		inst := lowerbound.SampleMu(lowerbound.MuParams{NPart: nPart, Gamma: gamma}, rng)
		res, rerr := run(inst, xrand.New(seed+uint64(bi)), budgets[bi])
		if rerr != nil {
			return cell{}, rerr
		}
		return cell{success: res.Success, bits: float64(res.Bits)}, nil
	})
	if err != nil {
		return nil, err
	}
	curves := make([][]*stats.RateAggregator, len(nParts))
	for pi := range nParts {
		curves[pi] = make([]*stats.RateAggregator, len(budgets))
		for bi := range budgets {
			a := stats.NewRateAggregator(trials)
			for trial := 0; trial < trials; trial++ {
				c := cells[pi*perPart+bi*trials+trial]
				a.Add(c.success, c.bits)
			}
			curves[pi][bi] = a
		}
	}
	return curves, nil
}

// threshold finds the first budget reaching 50% success, or -1.
func threshold(budgets []int, curve []*stats.RateAggregator, trials int) int {
	for i, a := range curve {
		if 2*a.Successes >= trials {
			return budgets[i]
		}
	}
	return -1
}

// e3OneWayProbe probes Table 1 rows 3 and 5: the one-way Ω((nd)^{1/6})
// bound at d = Θ(√n), where (nd)^{1/6} = n^{1/4}.
func e3OneWayProbe() Experiment {
	return Experiment{
		ID:         "E3",
		Title:      "One-way triangle-edge detection: success vs budget on µ",
		PaperClaim: "Table 1 row 3 / Thm 4.7: Ω(n^{1/4}) one-way bits at d = Θ(√n); Ω((nd)^{1/6}) in general",
		Run: func(ctx context.Context, cfg RunConfig) (*Table, error) {
			t := &Table{Columns: []string{"n", "budget_bits", "success", "trials", "rate_lo95", "rate_hi95", "mean_bits", "covered~"}}
			const gamma = 2.0
			trials := cfg.trials(40)
			nParts := []int{125, 250, 500, 1000}
			if cfg.Quick {
				nParts = []int{125, 250}
			}
			// A fine grid: the one-way threshold grows only like
			// n^{1/4}·log n, so coarse doubling steps cannot resolve it.
			budgets := []int{25, 32, 40, 50, 62, 78, 98, 122, 153, 191}
			curves, err := probeCurves(ctx, cfg, nParts, gamma, budgets, trials,
				func(inst lowerbound.MuInstance, shared *xrand.Shared, budget int) (lowerbound.ProbeResult, error) {
					return lowerbound.OneWayProbe{BudgetBits: budget}.Run(inst, shared)
				})
			if err != nil {
				return nil, err
			}
			var thrX, thrY []float64
			for pi, nPart := range nParts {
				n := 3 * nPart
				for bi, budget := range budgets {
					a := curves[pi][bi]
					lo, hi := a.Wilson()
					t.AddRow(n, budget, a.Successes, trials, lo, hi, a.MeanBits, "B²/log²n")
				}
				if thr := threshold(budgets, curves[pi], trials); thr > 0 {
					t.AddNote("n=%d: 50%% success at budget ≈ %d bits (n^{1/4}·log n ≈ %.0f)",
						n, thr, math.Pow(float64(n), 0.25)*math.Log2(float64(n)))
					thrX = append(thrX, float64(n))
					thrY = append(thrY, float64(thr))
				}
			}
			if len(thrX) >= 2 {
				if fit, err := stats.FitPower(thrX, thrY); err == nil {
					t.AddNote("threshold fit vs n: %s (bound predicts exponent ≥ 0.25)", fit)
				}
			}
			t.AddNote("rate_lo95/rate_hi95 are Wilson-score intervals — at these small counts the normal approximation collapses near rates 0 and 1")
			return t, nil
		},
	}
}

// e4SimProbe probes Table 1 row 4: the simultaneous Ω((nd)^{1/3}) bound,
// i.e. Ω(√n) at d = Θ(√n) — quadratically above the one-way threshold.
func e4SimProbe() Experiment {
	return Experiment{
		ID:         "E4",
		Title:      "Simultaneous triangle-edge detection: success vs budget on µ",
		PaperClaim: "Table 1 row 4 / §4.2.3: Ω(√n) simultaneous bits at d = Θ(√n); Ω((nd)^{1/3}) in general",
		Run: func(ctx context.Context, cfg RunConfig) (*Table, error) {
			t := &Table{Columns: []string{"n", "budget_bits", "success", "trials", "rate_lo95", "rate_hi95", "mean_bits"}}
			const gamma = 2.0
			trials := cfg.trials(20)
			nParts := []int{125, 250, 500}
			if cfg.Quick {
				nParts = []int{125, 250}
			}
			budgets := []int{40, 80, 160, 320, 640, 1280, 2560}
			curves, err := probeCurves(ctx, cfg, nParts, gamma, budgets, trials,
				func(inst lowerbound.MuInstance, shared *xrand.Shared, budget int) (lowerbound.ProbeResult, error) {
					return lowerbound.SimProbe{BudgetBits: budget, Gamma: gamma}.Run(inst, shared)
				})
			if err != nil {
				return nil, err
			}
			var thrX, thrY []float64
			for pi, nPart := range nParts {
				n := 3 * nPart
				for bi, budget := range budgets {
					a := curves[pi][bi]
					lo, hi := a.Wilson()
					t.AddRow(n, budget, a.Successes, trials, lo, hi, a.MeanBits)
				}
				if thr := threshold(budgets, curves[pi], trials); thr > 0 {
					t.AddNote("n=%d: 50%% success at budget ≈ %d bits (√n·log n ≈ %.0f)",
						n, thr, math.Sqrt(float64(n))*math.Log2(float64(n)))
					thrX = append(thrX, float64(n))
					thrY = append(thrY, float64(thr))
				}
			}
			if len(thrX) >= 2 {
				if fit, err := stats.FitPower(thrX, thrY); err == nil {
					t.AddNote("threshold fit vs n: %s (bound predicts exponent ≥ 0.5)", fit)
				}
			}
			t.AddNote("the simultaneous threshold sits quadratically above the one-way threshold of E3 — the paper's separation")
			t.AddNote("rate_lo95/rate_hi95 are Wilson-score intervals — at these small counts the normal approximation collapses near rates 0 and 1")
			return t, nil
		},
	}
}

// e5Symmetrization verifies the Theorem 4.15 accounting empirically.
func e5Symmetrization() Experiment {
	return Experiment{
		ID:         "E5",
		Title:      "Symmetrization: k-player simultaneous → 3-player one-way",
		PaperClaim: "Table 1 row 5 / Thm 4.15: CC_k^{sim} ≥ (k/2)·CC_3^{→}, hence Ω(k·(nd)^{1/6})",
		Run: func(ctx context.Context, cfg RunConfig) (*Table, error) {
			t := &Table{Columns: []string{"k", "trials", "total_bits", "derived_oneway_bits", "derived/total", "2/k"}}
			rng := rand.New(rand.NewSource(int64(cfg.Seed) + 5))
			inst := lowerbound.SampleMu(lowerbound.MuParams{NPart: 80, Gamma: 2}, rng)
			trials := cfg.trials(20)
			ks := []int{4, 8, 16}
			if cfg.Quick {
				ks = []int{4, 8}
			}
			// The embeddings consume one sequential rng stream (each draw
			// depends on all earlier ones), so they are drawn up front in
			// (k, trial) order; only the protocol runs — the expensive part
			// — fan out over the pool.
			embs := make([]lowerbound.Embedding, 0, len(ks)*trials)
			for _, k := range ks {
				for trial := 0; trial < trials; trial++ {
					embs = append(embs, lowerbound.Embed3ToK(inst.Alice, inst.Bob, inst.Charlie, k, rng))
				}
			}
			type cell struct{ derived, total float64 }
			cells, err := runner.Map(ctx, cfg.jobs(), len(ks)*trials, func(ctx context.Context, i int) (cell, error) {
				ki, trial := i/trials, i%trials
				emb := embs[i]
				top, err := comm.NewTopology(inst.N(), emb.Inputs, xrand.New(cfg.Seed+uint64(trial)))
				if err != nil {
					return cell{}, err
				}
				res, err := protocol.SimLow{Eps: 0.1, AvgDegree: inst.G.AvgDegree(),
					Tag: fmt.Sprintf("e5/%d/%d", ks[ki], trial)}.RunOn(ctx, top)
				if err != nil {
					return cell{}, err
				}
				return cell{
					derived: float64(lowerbound.SimulateOneWayCost(res.Stats.PerPlayer, emb)),
					total:   float64(res.Stats.TotalBits),
				}, nil
			})
			if err != nil {
				return nil, err
			}
			for ki, k := range ks {
				var sumDerived, sumTotal float64
				for trial := 0; trial < trials; trial++ {
					c := cells[ki*trials+trial]
					sumDerived += c.derived
					sumTotal += c.total
				}
				t.AddRow(k, trials, sumTotal/float64(trials), sumDerived/float64(trials),
					sumDerived/sumTotal, 2.0/float64(k))
			}
			t.AddNote("derived/total tracks 2/k: a k-player simultaneous protocol yields a 3-player one-way protocol at 2/k of its cost")
			return t, nil
		},
	}
}

// e6BHM reproduces Table 1 row 6: the d = Θ(1) bound via the Boolean
// Matching reduction, and shows our testers are tight against it.
func e6BHM() Experiment {
	return Experiment{
		ID:         "E6",
		Title:      "Boolean Hidden Matching reduction (d = Θ(1))",
		PaperClaim: "Table 1 row 6 / Thm 4.16: Ω(√n) one-way bits for triangle-freeness at d = O(1)",
		Run: func(ctx context.Context, cfg RunConfig) (*Table, error) {
			t := &Table{Columns: []string{"bhm_n", "graph_n", "side", "detect_rate", "det_lo95", "det_hi95", "false_pos", "tester_bits", "bits/√n"}}
			trials := cfg.trials(10)
			sizes := []int{64, 256, 1024}
			if cfg.Quick {
				sizes = []int{64, 256}
			}
			type block struct {
				n       int
				allZero bool
			}
			var bs []block
			for _, n := range sizes {
				for _, allZero := range []bool{true, false} {
					bs = append(bs, block{n, allZero})
				}
			}
			type cell struct {
				found bool
				bits  float64
			}
			cells, err := runner.MapArena(ctx, cfg.jobs(), len(bs)*trials, func(ctx context.Context, a *runner.Arena, i int) (cell, error) {
				b, trial := bs[i/trials], i%trials
				rng := a.Rand(int64(cfg.Seed)*13 + int64(trial))
				inst := lowerbound.SampleBHM(b.n, b.allZero, rng)
				red := lowerbound.Reduce(inst)
				top, err := comm.NewTopology(red.G.N(), red.Inputs(), xrand.New(cfg.Seed+uint64(trial)+uint64(b.n)))
				if err != nil {
					return cell{}, err
				}
				res, err := protocol.SimLow{Eps: 0.2, AvgDegree: red.G.AvgDegree(),
					Tag: fmt.Sprintf("e6/%d/%v/%d", b.n, b.allZero, trial)}.RunOn(ctx, top)
				if err != nil {
					return cell{}, err
				}
				return cell{found: res.Found(), bits: float64(res.Stats.TotalBits)}, nil
			})
			if err != nil {
				return nil, err
			}
			var xs, ys []float64
			for bi, b := range bs {
				detects, falsePos := 0, 0
				var bitsSum float64
				for trial := 0; trial < trials; trial++ {
					c := cells[bi*trials+trial]
					if c.found {
						if b.allZero {
							detects++
						} else {
							falsePos++
						}
					}
					bitsSum += c.bits
				}
				side := "all-ones (triangle-free)"
				if b.allZero {
					side = "all-zeros (n disjoint triangles)"
				}
				mean := bitsSum / float64(trials)
				graphN := 4*b.n + 1
				// The Wilson interval is only meaningful on the far side:
				// on triangle-free inputs rejection is structurally
				// impossible (one-sided error), not merely unobserved.
				var loCell, hiCell interface{} = "-", "-"
				if b.allZero {
					lo, hi := stats.Wilson(detects, trials)
					loCell, hiCell = lo, hi
				}
				t.AddRow(b.n, graphN, side, float64(detects)/float64(trials), loCell, hiCell,
					falsePos, mean, mean/math.Sqrt(float64(graphN)))
				if b.allZero {
					xs = append(xs, float64(graphN))
					ys = append(ys, mean)
				}
			}
			if fit, err := stats.FitPower(xs, ys); err == nil {
				t.AddNote("tester cost fit vs graph n: %s — the Õ(k√n) upper bound meets the Ω(√n) reduction bound", fit)
			}
			t.AddNote("false positives are structurally impossible (one-sided error); detection on the far side is w.h.p.")
			t.AddNote("det_lo95/det_hi95 are Wilson-score intervals on the far-side detection rate (small-count safe); dashes on triangle-free rows, where rejection is structurally impossible")
			return t, nil
		},
	}
}

// e11Streaming reproduces the §4.2.2 streaming corollary.
func e11Streaming() Experiment {
	return Experiment{
		ID:         "E11",
		Title:      "Streaming triangle-edge detection: success vs space",
		PaperClaim: "§4.2.2: Ω(n^{1/4}) one-pass space via the one-way reduction",
		Run: func(ctx context.Context, cfg RunConfig) (*Table, error) {
			t := &Table{Columns: []string{"n", "detector", "space_bits", "success", "trials"}}
			const gamma = 2.0
			trials := cfg.trials(20)
			nParts := []int{250, 500}
			if cfg.Quick {
				nParts = []int{250}
			}
			capArmsGrid := []int{2, 8, 32, 128}
			type block struct {
				nPart, capArms int
			}
			var bs []block
			for _, nPart := range nParts {
				for _, capArms := range capArmsGrid {
					bs = append(bs, block{nPart, capArms})
				}
			}
			type cell struct {
				win   bool
				space int
			}
			cells, err := runner.MapArena(ctx, cfg.jobs(), len(bs)*trials, func(_ context.Context, a *runner.Arena, i int) (cell, error) {
				b, trial := bs[i/trials], i%trials
				rng := a.Rand(int64(cfg.Seed)*7 + int64(trial))
				inst := lowerbound.SampleMu(lowerbound.MuParams{NPart: b.nPart, Gamma: gamma}, rng)
				det := streamred.NewStarDetector(xrand.New(cfg.Seed+uint64(trial)), inst.NPart, b.capArms, inst.N())
				var stream streamred.Stream
				stream.Edges = append(stream.Edges, inst.Alice...)
				stream.Edges = append(stream.Edges, inst.Bob...)
				stream.Edges = append(stream.Edges, inst.Charlie...)
				e, ok := streamred.Drive(det, stream)
				return cell{win: ok && inst.IsValidOutput(e), space: det.SpaceBits()}, nil
			})
			if err != nil {
				return nil, err
			}
			for bi, b := range bs {
				wins, space := 0, 0
				for trial := 0; trial < trials; trial++ {
					c := cells[bi*trials+trial]
					if c.win {
						wins++
					}
					space = c.space
				}
				t.AddRow(3*b.nPart, "star", space, wins, trials)
				if b.capArms == capArmsGrid[len(capArmsGrid)-1] {
					n := 3 * b.nPart
					t.AddNote("n=%d: n^{1/4}·log n ≈ %.0f bits", n, math.Pow(float64(n), 0.25)*math.Log2(float64(n)))
				}
			}
			return t, nil
		},
	}
}
