package harness

import (
	"context"
	"fmt"
	"math/rand"

	"tricomm/internal/graph"
	"tricomm/internal/harness/runner"
	"tricomm/internal/partition"
	"tricomm/internal/protocol"
)

// e12Behrend exercises the triangle-sparse hard instances the paper's §5
// points to for future dense lower bounds: Behrend graphs, where every
// edge lies on exactly one triangle. The testers must still succeed —
// the instances are exactly 1/3-far — but they get no help from
// triangle-rich neighborhoods.
func e12Behrend() Experiment {
	return Experiment{
		ID:         "E12",
		Title:      "Behrend instances: triangle-sparse vs triangle-dense ε-far inputs",
		PaperClaim: "§5 outlook: Behrend graphs as the expected hard dense inputs; testers must stay complete on them",
		Run: func(ctx context.Context, cfg RunConfig) (*Table, error) {
			t := &Table{Columns: []string{"generator", "n", "d", "eps", "protocol", "trials", "found", "bits"}}
			trials := cfg.trials(5)
			ms := []int{243, 729}
			if cfg.Quick {
				ms = []int{243}
			}
			type block struct {
				genName string
				n       int
				d       float64
				proto   string
				mk      func(rng *rand.Rand) *graph.Graph
			}
			var bs []block
			for _, m := range ms {
				bg := graph.NewBehrendGraph(m)
				n := bg.G.N()
				d := bg.G.AvgDegree()
				// A triangle-dense control with the same n, d and (nearly)
				// the same ε — 0.32 rather than exactly 1/3 so block
				// rounding stays inside the edge budget.
				control := func(rng *rand.Rand) *graph.Graph {
					return graph.FarWithDegree(graph.FarParams{N: n, D: d, Eps: 0.32}, rng).G
				}
				for _, gen := range []struct {
					name string
					mk   func(rng *rand.Rand) *graph.Graph
				}{
					{"behrend", func(*rand.Rand) *graph.Graph { return bg.G }},
					{"kaaa-planted", control},
				} {
					for _, proto := range []string{"sim-high", "unrestricted"} {
						bs = append(bs, block{gen.name, n, d, proto, gen.mk})
					}
				}
			}
			plans := make([]runner.Plan, len(bs))
			for bi, b := range bs {
				plans[bi] = runner.Plan{
					Trials:       trials,
					IntraWorkers: cfg.IntraWorkers,
					Seed:         func(trial int) uint64 { return cfg.Seed*313 + uint64(trial) },
					Gen:          b.mk,
					Partitioner:  partition.Disjoint{},
					K:            4,
					Testers: []func(g *graph.Graph, trial int) runner.Tester{
						func(g *graph.Graph, trial int) runner.Tester {
							if b.proto == "sim-high" {
								return protocol.SimHigh{Eps: 1.0 / 3, AvgDegree: g.AvgDegree(),
									Tag: fmt.Sprintf("e12/%s/%d", b.genName, trial)}
							}
							return protocol.Unrestricted{Eps: 1.0 / 3, AvgDegree: g.AvgDegree(),
								Tag: fmt.Sprintf("e12/%s/%d", b.genName, trial)}
						},
					},
				}
			}
			aggs, err := sweep(ctx, cfg, plans)
			if err != nil {
				return nil, err
			}
			for bi, b := range bs {
				a := aggs[bi][0]
				t.AddRow(b.genName, b.n, b.d, "1/3", b.proto, trials, a.Found, a.Summary().Mean)
			}
			t.AddNote("Behrend inputs have every edge on exactly ONE triangle — completeness must not rely on triangle-dense neighborhoods")
			return t, nil
		},
	}
}

// e13Bucketing is the §3.3 motivation ablation: bucketed candidate
// sampling vs naive uniform vertex sampling on dense-core inputs where
// all triangles touch a few hubs.
func e13Bucketing() Experiment {
	return Experiment{
		ID:         "E13",
		Title:      "Ablation: bucketed candidate sampling vs uniform vertex sampling",
		PaperClaim: "§3.3: \"a uniformly random vertex is not always likely to be full\" — bucketing targets dense subgraphs",
		Run: func(ctx context.Context, cfg RunConfig) (*Table, error) {
			t := &Table{Columns: []string{"tester", "n", "block", "trials", "found", "bits"}}
			trials := cfg.trials(6)
			// A hidden K_{6,6,6} block among 12000 vertices: all triangles
			// live on 18 vertices (0.15% of V), so ~100 uniform samples miss
			// the block most of the time, while the block's degree (12)
			// stands out to the bucket iteration.
			const n, blockA = 12000, 6
			gen := func(rng *rand.Rand) *graph.Graph {
				g, _ := graph.HiddenBlock(graph.HiddenBlockParams{N: n, A: blockA, NoiseDeg: 4}, rng)
				return g
			}
			testers := []string{"bucketed", "naive-uniform"}
			plans := make([]runner.Plan, len(testers))
			for ti, tc := range testers {
				plans[ti] = runner.Plan{
					Trials:       trials,
					IntraWorkers: cfg.IntraWorkers,
					Seed:         func(trial int) uint64 { return cfg.Seed*127 + uint64(trial) },
					Gen:          gen,
					Partitioner:  partition.Disjoint{},
					K:            4,
					Testers: []func(g *graph.Graph, trial int) runner.Tester{
						func(g *graph.Graph, trial int) runner.Tester {
							if tc == "bucketed" {
								return protocol.Unrestricted{Eps: g.FarnessLowerBound(), AvgDegree: g.AvgDegree(),
									Tag: fmt.Sprintf("e13b/%d", trial)}
							}
							// Same uniform-sample budget the bucketed tester
							// spends per bucket (q = 3·k·ln n).
							return protocol.NaiveUniform{Eps: g.FarnessLowerBound(),
								Tag: fmt.Sprintf("e13n/%d", trial)}
						},
					},
				}
			}
			aggs, err := sweep(ctx, cfg, plans)
			if err != nil {
				return nil, err
			}
			for ti, tc := range testers {
				a := aggs[ti][0]
				t.AddRow(tc, n, fmt.Sprintf("K_{%d,%d,%d}", blockA, blockA, blockA), trials, a.Found, a.Summary().Mean)
			}
			t.AddNote("all triangles live on %d of %d vertices: uniform sampling almost never probes the block", 3*blockA, n)
			return t, nil
		},
	}
}
