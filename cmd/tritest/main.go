// Command tritest generates a graph, splits it among k players, runs one
// of the triangle-freeness protocols, and prints the verdict and exact
// communication cost. With -check (the default) it also compares the
// verdict against the instance's ground truth and exits non-zero, printing
// the failing seed, on disagreement — which makes it a scripted health
// check. With -server it submits the same job to a running tricommd daemon
// and audits the daemon's verdicts instead, regenerating each trial's
// instance locally from the reported per-trial seed.
//
// Instances come from the scenario registry: -scenario accepts any
// registered family name or a JSON spec (-list-scenarios prints the
// catalog), while the legacy -kind/-n/-d/-eps flags keep working and are
// routed through the same registry.
//
// Examples:
//
//	tritest -n 2048 -d 8 -eps 0.2 -k 8 -protocol sim-oblivious
//	tritest -scenario chung-lu -protocol interactive -partition duplicate
//	tritest -scenario '{"family":"behrend-blowup","m":16,"blowup":4}' -protocol exact
//	tritest -server http://127.0.0.1:7341 -scenario dup-adversary -trials 5
//
// Health-check semantics: a witness that is not a real triangle of the
// instance is always a hard failure (soundness is unconditional). A missed
// triangle is a failure too — for certified-far scenarios the construction
// guarantees ε-farness, where the protocols succeed with high probability,
// so use a certified family (or -protocol exact, which never misses) for
// scripted checks; on instances close to triangle-free a miss can be a
// legitimate tester outcome rather than a daemon fault.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"tricomm"
	"tricomm/internal/harness/runner"
	"tricomm/internal/parwork"
	"tricomm/internal/scenario"
	"tricomm/internal/service"
	"tricomm/internal/transport"
)

func main() {
	code, err := run()
	if err != nil {
		fmt.Fprintf(os.Stderr, "tritest: %v\n", err)
		if code == 0 {
			code = 1
		}
	}
	os.Exit(code)
}

// run returns the process exit code: 0 for healthy, 2 for a ground-truth
// disagreement, 1 (with an error) for operational failures.
func run() (int, error) {
	var (
		n        = flag.Int("n", 1024, "number of vertices")
		d        = flag.Float64("d", 8, "target average degree")
		eps      = flag.Float64("eps", 0.2, "farness parameter")
		k        = flag.Int("k", 4, "number of players")
		kind     = flag.String("kind", "far", "legacy graph kind: far | random | bipartite (see -scenario for the full catalog)")
		scen     = flag.String("scenario", "", "scenario: a registry family name or JSON spec; overrides -kind/-n/-d/-eps")
		listScen = flag.Bool("list-scenarios", false, "print the scenario catalog and exit")
		proto    = flag.String("protocol", "sim-oblivious", "protocol: "+strings.Join(tricomm.ProtocolNames(), " | "))
		part     = flag.String("partition", "disjoint", "partition: "+strings.Join(tricomm.SplitSchemeNames(), " | "))
		transp   = flag.String("transport", "chan", "session transport: "+strings.Join(tricomm.TransportNames(), " | "))
		seed     = flag.Int64("seed", 1, "random seed")
		knownDeg = flag.Bool("known-degree", true, "tell the protocol the true average degree")
		check    = flag.Bool("check", true, "compare the verdict against ground truth; exit 2 with the failing seed on disagreement")
		trials   = flag.Int("trials", 1, "trials (server mode)")
		server   = flag.String("server", "", "audit a running tricommd at this base URL instead of running locally")
		faults   = flag.String("faults", "", "deterministic fault injection: off | lossy | chaos | JSON fault spec")
		intraW   = flag.Int("intra-workers", 0, "goroutines for the session's per-player hot loops and the ground-truth triangle search (<= 0: $TRICOMM_INTRA_WORKERS, then 1); reports are identical at any value")
	)
	flag.Parse()
	intraWorkers = parwork.Workers(*intraW)

	if *listScen {
		fmt.Print(tricomm.ScenarioUsage())
		return 0, nil
	}
	if _, err := tricomm.ParseSplitScheme(*part); err != nil {
		return 1, err
	}
	if _, err := parseProtocol(*proto); err != nil {
		return 1, err
	}
	if _, err := tricomm.ParseTransport(*transp); err != nil {
		return 1, err
	}
	if _, err := transport.ParseFaultSpec(*faults); err != nil {
		return 1, err
	}
	spec, err := resolveSpec(*scen, *kind, *n, *d, *eps)
	if err != nil {
		return 1, err
	}

	if *server != "" {
		return runServer(serverJob{
			base: *server, spec: spec, k: *k, eps: *eps,
			proto: *proto, part: *part, transport: *transp, faults: *faults,
			seed: uint64(*seed), trials: *trials, knownDeg: *knownDeg, check: *check,
		})
	}
	return runLocal(spec, *eps, *k, *proto, *part, *transp, *faults, *seed, *knownDeg, *check)
}

// resolveSpec turns either a -scenario argument or the legacy
// -kind/-n/-d/-eps flags into one canonical scenario spec — the same
// construction the daemon uses, so server-mode audits can regenerate any
// trial.
func resolveSpec(scen, kind string, n int, d, eps float64) (scenario.Spec, error) {
	if scen != "" {
		return scenario.Parse(scen)
	}
	sp := scenario.Spec{Family: kind, N: n, D: d}
	if kind == "far" {
		sp.Eps = eps
	}
	return scenario.Canonical(sp)
}

// intraWorkers is the resolved -intra-workers value: goroutines for the
// ground-truth triangle search (deterministic at any width).
var intraWorkers = 1

// audit compares one verdict against the instance's ground truth. It
// returns a non-empty failure description on disagreement.
func audit(g *tricomm.Graph, triangleFree bool, witness *tricomm.Triangle, seed int64) string {
	if !triangleFree {
		if witness == nil {
			return fmt.Sprintf("UNSOUND: triangle reported without a witness (seed=%d)", seed)
		}
		w := *witness
		if w.A == w.B || w.B == w.C || w.A == w.C ||
			!g.HasEdge(w.A, w.B) || !g.HasEdge(w.B, w.C) || !g.HasEdge(w.A, w.C) {
			return fmt.Sprintf("UNSOUND: witness %v is not a triangle of the instance (seed=%d)", w, seed)
		}
	}
	_, hasTriangle := g.FindTriangleN(intraWorkers)
	if triangleFree && hasTriangle {
		return fmt.Sprintf("MISS: verdict triangle-free but the instance has a triangle (seed=%d)", seed)
	}
	if !triangleFree && !hasTriangle {
		// Unreachable given the soundness check above, but state it.
		return fmt.Sprintf("UNSOUND: triangle reported on a triangle-free instance (seed=%d)", seed)
	}
	return ""
}

func runLocal(spec scenario.Spec, eps float64, k int, proto, part, transp, faults string, seed int64, knownDeg, check bool) (int, error) {
	si, err := tricomm.GenerateScenario(spec.JSON(), seed)
	if err != nil {
		return 1, err
	}
	g := si.Graph
	scheme, _ := tricomm.ParseSplitScheme(part)
	protocol, _ := parseProtocol(proto)
	transport, _ := tricomm.ParseTransport(transp)

	cluster, err := si.Cluster(k, scheme, uint64(seed))
	if err != nil {
		return 1, err
	}
	opts := tricomm.Options{Protocol: protocol, Eps: eps, Transport: transport, Faults: faults, IntraWorkers: intraWorkers}
	if knownDeg {
		opts.AvgDegree = g.AvgDegree()
	}

	fmt.Printf("graph: n=%d m=%d avg-degree=%.2f scenario=%s", g.N(), g.M(), g.AvgDegree(), spec.Family)
	if si.CertEps > 0 {
		fmt.Printf(" certified-eps=%.3f", si.CertEps)
	}
	if si.TriangleFree {
		fmt.Printf(" triangle-free-by-construction")
	}
	if si.Players != nil {
		fmt.Printf("\nplayers: k=%d assignment=scenario-prescribed transport=%s\n", len(si.Players), transp)
	} else {
		fmt.Printf("\nplayers: k=%d partition=%s transport=%s\n", k, part, transp)
	}

	rep, err := cluster.Test(context.Background(), opts)
	if err != nil {
		return 1, err
	}
	fmt.Printf("protocol: %s\n", rep.Protocol)
	if rep.TriangleFree {
		fmt.Println("verdict: triangle-free (one-sided; may err only on ε-far inputs)")
	} else {
		fmt.Printf("verdict: found triangle %v\n", rep.Witness)
	}
	fmt.Printf("communication: %d bits total, %d rounds", rep.Bits, rep.Rounds)
	if rep.WireBytes > 0 {
		fmt.Printf(", %d wire bytes", rep.WireBytes)
	}
	if rep.Retransmits > 0 || rep.FramesLost > 0 {
		fmt.Printf(" (faults: %d frames lost, %d retransmits)", rep.FramesLost, rep.Retransmits)
	}
	fmt.Println()
	for j, b := range rep.PerPlayerBits {
		fmt.Printf("  player %d: %d bits\n", j, b)
	}
	if check {
		w := rep.Witness
		if msg := audit(g, rep.TriangleFree, &w, seed); msg != "" {
			fmt.Fprintf(os.Stderr, "tritest: FAIL %s\n", msg)
			return 2, nil
		}
		fmt.Println("check: verdict agrees with ground truth")
	}
	return 0, nil
}

type serverJob struct {
	base            string
	spec            scenario.Spec
	eps             float64
	k, trials       int
	proto, part     string
	transport       string
	faults          string
	seed            uint64
	knownDeg, check bool
}

// runServer submits the job to a tricommd daemon and audits every trial
// outcome against a locally regenerated instance.
func runServer(j serverJob) (int, error) {
	ctx := context.Background()
	cl := &service.Client{Base: j.base}
	if err := cl.Health(ctx); err != nil {
		return 1, fmt.Errorf("daemon unhealthy: %w", err)
	}
	ji, err := cl.Submit(ctx, service.JobSpec{
		Graph:       service.GraphSpec{Spec: j.spec},
		K:           j.k,
		Partition:   j.part,
		Protocol:    j.proto,
		Eps:         j.eps,
		KnownDegree: j.knownDeg,
		Trials:      j.trials,
		Transport:   j.transport,
		Seed:        j.seed,
		Faults:      j.faults,
	})
	if err != nil {
		return 1, err
	}
	fmt.Printf("daemon %s: job %s (%s, %d trials)\n", j.base, ji.ID, j.proto, j.trials)

	// The daemon echoes the spec with defaults filled in; derive expected
	// trial seeds from that echo so defaulting (e.g. seed 0 → 1) cannot be
	// mistaken for drift.
	baseSeed := ji.Spec.Seed

	failures, aborted := 0, 0
	fin, err := cl.Stream(ctx, ji.ID, func(o service.TrialOutcome) error {
		if o.Aborted {
			// An aborted trial carries no verdict to audit; the session
			// failed typed instead of returning anything unsound.
			aborted++
			fmt.Printf("trial %d seed=%d: aborted after %d retries: %s\n",
				o.Trial, o.Seed, o.Retries, o.Error)
			return nil
		}
		verdict := "triangle-free"
		if !o.TriangleFree {
			if o.Witness != nil {
				verdict = fmt.Sprintf("found-triangle %v", *o.Witness)
			} else {
				verdict = "found-triangle (no witness!)"
			}
		}
		fmt.Printf("trial %d seed=%d: %s  bits=%d rounds=%d\n", o.Trial, o.Seed, verdict, o.Bits, o.Rounds)
		if !j.check {
			return nil
		}
		if o.Seed != runner.TrialSeed(baseSeed, o.Trial) {
			failures++
			fmt.Fprintf(os.Stderr, "tritest: FAIL trial %d reports seed %d, expected %d — daemon seed derivation drifted\n",
				o.Trial, o.Seed, runner.TrialSeed(baseSeed, o.Trial))
			return nil
		}
		si, err := tricomm.GenerateScenario(j.spec.JSON(), int64(o.Seed))
		if err != nil {
			return err
		}
		var w *tricomm.Triangle
		if o.Witness != nil {
			w = &tricomm.Triangle{A: o.Witness[0], B: o.Witness[1], C: o.Witness[2]}
		}
		if msg := audit(si.Graph, o.TriangleFree, w, int64(o.Seed)); msg != "" {
			failures++
			fmt.Fprintf(os.Stderr, "tritest: FAIL trial %d %s\n", o.Trial, msg)
		}
		return nil
	})
	if err != nil {
		return 1, err
	}
	switch fin.State {
	case service.StateDone:
	case service.StatePartial:
		// Within the job's aborted-trial budget: the completed trials'
		// verdicts are valid (and audited above); say what's missing.
		fmt.Printf("note: job %s partial — %d of %d trials aborted under faults\n",
			fin.ID, aborted, j.trials)
	default:
		return 1, fmt.Errorf("job %s finished %s: %s", fin.ID, fin.State, fin.Error)
	}
	if failures > 0 {
		return 2, fmt.Errorf("%d of %d trials disagree with ground truth", failures, j.trials)
	}
	if j.check {
		fmt.Printf("check: all %d completed trials agree with ground truth\n", j.trials-aborted)
	}
	return 0, nil
}

func parseProtocol(s string) (tricomm.Protocol, error) {
	if s == "" {
		return 0, fmt.Errorf("unknown -protocol %q (valid: %s)", s, strings.Join(tricomm.ProtocolNames(), ", "))
	}
	return tricomm.ParseProtocol(s)
}
