package harness

import (
	"context"
	"fmt"

	"tricomm"
	"tricomm/internal/harness/runner"
	"tricomm/internal/scenario"
)

// This file is the harness's bridge to the scenario layer
// (internal/scenario): a generic per-trial runner for any declarative
// instance spec (behind benchtable -scenario), and the E14 sweep over
// the registered families.

// ScenarioTrial is one trial's outcome of a scenario run — the typed
// form behind ScenarioTable, and what the cross-surface parity golden
// test compares against the facade and the service.
type ScenarioTrial struct {
	// Trial is the trial index; Seed its derived TrialSeed.
	Trial int
	Seed  uint64
	// TriangleFree, Witness, Bits, WireBytes, and Rounds mirror the
	// facade Report.
	TriangleFree bool
	Witness      tricomm.Triangle
	Bits         int64
	WireBytes    int64
	Rounds       int64
	// CertEps is the instance's certified farness (0 without a
	// certificate).
	CertEps float64
	// N, M are the generated instance's sizes.
	N, M int
	// Checked and HasTriangle report the ground-truth audit (only when
	// ScenarioConfig.Check is set): whether the instance contains any
	// triangle at all.
	Checked     bool
	HasTriangle bool
}

// ScenarioConfig declares a scenario run: the spec plus the cluster and
// tester selectors, all in their CLI name forms so benchtable, tests,
// and the service speak the same vocabulary.
type ScenarioConfig struct {
	// Spec is a scenario family name or JSON spec.
	Spec string
	// K and Scheme shape the split (ignored when the family prescribes
	// the per-player assignment).
	K      int
	Scheme string
	// Protocol and Transport name the tester and session transport.
	Protocol  string
	Transport string
	// Eps is the tester's farness target (0 means the facade default).
	Eps float64
	// KnownDegree passes the instance's true average degree to the
	// tester.
	KnownDegree bool
	// Check audits every trial against ground truth: a "found" verdict's
	// witness must be a genuine triangle of the instance (an unsound
	// witness fails the run), and each trial records whether the instance
	// actually contains a triangle, so misses are visible. The audit's
	// triangle search runs at RunConfig.IntraWorkers, which cannot change
	// any result.
	Check bool
}

// players is the defaulted player count — the one place the scenario
// k default lives.
func (sc ScenarioConfig) players() int {
	if sc.K == 0 {
		return 4
	}
	return sc.K
}

// RunScenarioTrials executes cfg.Trials trials of the scenario over the
// shared worker pool. Trial i runs with TrialSeed(cfg.Seed, i) — the
// same derivation the tricommd service uses — so every outcome here is
// bit-identical to the same trial submitted as a service job or run via
// tricomm.RunScenario.
func RunScenarioTrials(ctx context.Context, cfg RunConfig, sc ScenarioConfig, trials int) ([]ScenarioTrial, error) {
	sp, err := scenario.Parse(sc.Spec)
	if err != nil {
		return nil, err
	}
	proto, err := tricomm.ParseProtocol(sc.Protocol)
	if err != nil {
		return nil, err
	}
	scheme, err := tricomm.ParseSplitScheme(sc.Scheme)
	if err != nil {
		return nil, err
	}
	transp, err := tricomm.ParseTransport(sc.Transport)
	if err != nil {
		return nil, err
	}
	k := sc.players()
	return runner.Map(ctx, cfg.jobs(), trials, func(ctx context.Context, trial int) (ScenarioTrial, error) {
		seed := runner.TrialSeed(cfg.Seed, trial)
		si, err := tricomm.GenerateScenario(sp.JSON(), int64(seed))
		if err != nil {
			return ScenarioTrial{}, err
		}
		cl, err := si.Cluster(k, scheme, seed)
		if err != nil {
			return ScenarioTrial{}, err
		}
		opts := tricomm.Options{Protocol: proto, Eps: sc.Eps, Transport: transp}
		if sc.KnownDegree {
			opts.AvgDegree = si.Graph.AvgDegree()
		}
		rep, err := cl.Test(ctx, opts)
		if err != nil {
			return ScenarioTrial{}, fmt.Errorf("trial %d (seed %d): %w", trial, seed, err)
		}
		checked, hasTri := false, false
		if sc.Check {
			checked = true
			_, hasTri = si.Graph.FindTriangleN(cfg.IntraWorkers)
			if !rep.TriangleFree {
				w := rep.Witness
				if !si.Graph.IsTriangle(w.A, w.B, w.C) {
					return ScenarioTrial{}, fmt.Errorf(
						"trial %d (seed %d): UNSOUND witness %v is not a triangle of the instance",
						trial, seed, w)
				}
			}
		}
		return ScenarioTrial{
			Trial:        trial,
			Seed:         seed,
			TriangleFree: rep.TriangleFree,
			Witness:      rep.Witness,
			Bits:         rep.Bits,
			WireBytes:    rep.WireBytes,
			Rounds:       rep.Rounds,
			CertEps:      si.CertEps,
			N:            si.Graph.N(),
			M:            si.Graph.M(),
			Checked:      checked,
			HasTriangle:  hasTri,
		}, nil
	})
}

// ScenarioTable renders a scenario run as a benchtable-style table: one
// row per trial plus the canonical spec as a note.
func ScenarioTable(ctx context.Context, cfg RunConfig, sc ScenarioConfig, trials int) (*Table, error) {
	sp, err := scenario.Parse(sc.Spec)
	if err != nil {
		return nil, err
	}
	rows, err := RunScenarioTrials(ctx, cfg, sc, trials)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:    "scenario",
		Title: fmt.Sprintf("%s × %s", sp.Family, sc.Protocol),
		Columns: []string{"trial", "seed", "n", "m", "verdict", "witness",
			"bits", "wire_bytes", "rounds", "cert_eps"},
	}
	for _, r := range rows {
		verdict, witness := "triangle-free", "-"
		if !r.TriangleFree {
			verdict, witness = "found", r.Witness.String()
		}
		t.AddRow(r.Trial, fmt.Sprintf("%d", r.Seed), r.N, r.M, verdict, witness,
			r.Bits, r.WireBytes, r.Rounds, r.CertEps)
	}
	t.AddNote("spec: %s", sp.JSON())
	t.AddNote("k=%d scheme=%s transport=%s (seed-exact with tricomm.RunScenario and tricommd jobs)",
		sc.players(), sc.Scheme, sc.Transport)
	// The audit note is deterministic in (spec, seed, trials) only — never
	// in the worker counts — so checked output stays byte-identical at any
	// -jobs or intra-trial width.
	if sc.Check {
		misses, withTri := 0, 0
		for _, r := range rows {
			if r.HasTriangle {
				withTri++
				if r.TriangleFree {
					misses++
				}
			}
		}
		t.AddNote("check: audited %d trials against ground truth: %d with triangles, %d missed, 0 unsound",
			len(rows), withTri, misses)
	}
	return t, nil
}

// e14ScenarioSweep sweeps the scenario registry's headline families —
// including every family added with the scenario layer — through one
// tester and reports verdicts, communication, and certificates side by
// side. It is the "as many scenarios as you can imagine" axis of the
// roadmap made into a reproducible table.
func e14ScenarioSweep() Experiment {
	return Experiment{
		ID:    "E14",
		Title: "Scenario sweep: one tester across the instance-family registry",
		PaperClaim: "§3.4.2 dense cores, §4 Behrend constructions, §3.1 duplication regime — " +
			"each as a named, declarative scenario",
		Run: func(ctx context.Context, cfg RunConfig) (*Table, error) {
			t := &Table{Columns: []string{"family", "n", "m", "d", "trials", "found",
				"mean_bits", "cert_eps", "tfree"}}
			families := []string{
				"chung-lu", "sbm", "behrend-blowup", "dup-adversary",
				"dense-core", "hidden-block", "behrend", "far", "bipartite",
			}
			if cfg.Quick {
				families = []string{"chung-lu", "sbm", "behrend-blowup", "dup-adversary"}
			}
			trials := cfg.trials(3)
			for _, fam := range families {
				rows, err := RunScenarioTrials(ctx, cfg, ScenarioConfig{
					Spec: fam, K: 4, Protocol: "sim-oblivious", KnownDegree: false, Eps: 0.2,
				}, trials)
				if err != nil {
					return nil, err
				}
				found := 0
				var bits float64
				for _, r := range rows {
					if !r.TriangleFree {
						found++
					}
					bits += float64(r.Bits)
				}
				last := rows[len(rows)-1]
				sp, _ := scenario.Parse(fam)
				f, _ := scenario.Lookup(sp.Family)
				t.AddRow(fam, last.N, last.M, 2*float64(last.M)/float64(last.N), trials,
					found, bits/float64(trials), last.CertEps, f.TriangleFree)
			}
			t.AddNote("sim-oblivious tester, k=4, disjoint split (dup-adversary prescribes its own assignment)")
			t.AddNote("certified-far families must be found w.h.p.; triangle-free families must never be")
			return t, nil
		},
	}
}
