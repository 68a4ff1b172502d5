// Package tricomm is a library for testing triangle-freeness of a graph
// whose edges are partitioned among k players in the number-in-hand
// multiparty communication model, implementing the protocols of
//
//	Fischer, Gershtein, Oshman: "On the Multiparty Communication
//	Complexity of Testing Triangle-Freeness", PODC 2017
//	(arXiv:1705.08438).
//
// The package offers a small, stable facade over the internal machinery:
//
//   - construct or generate a graph (NewBuilder, RandomGraph, FarGraph,
//     BipartiteGraph);
//   - split it among players (Split) or assemble a Cluster from inputs you
//     already hold (NewCluster);
//   - run a tester (Cluster.Test) in the coordinator, blackboard, or
//     simultaneous model, with bit-exact communication accounting.
//
// All testers have one-sided error: a Report with a witness triangle is
// always correct; a "triangle-free" verdict errs with small probability
// only when the graph is ε-far from triangle-free.
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-reproduction results; the experiment harness behind them is
// runnable via cmd/benchtable.
package tricomm

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"time"

	"tricomm/internal/comm"
	"tricomm/internal/graph"
	"tricomm/internal/partition"
	"tricomm/internal/protocol"
	"tricomm/internal/scenario"
	"tricomm/internal/transport"
	"tricomm/internal/wire"
	"tricomm/internal/xrand"
)

// Edge is an undirected edge between vertex ids in [0, n).
type Edge = wire.Edge

// Triangle is a vertex triple forming a triangle (canonical order A<B<C).
type Triangle = graph.Triangle

// Graph is an immutable simple undirected graph.
type Graph = graph.Graph

// Builder accumulates edges into a Graph.
type Builder = graph.Builder

// NewBuilder returns a Builder for a graph on n vertices.
func NewBuilder(n int) *Builder { return graph.NewBuilder(n) }

// RandomGraph samples an Erdős–Rényi graph with expected average degree d.
func RandomGraph(n int, d float64, seed int64) *Graph {
	return graph.RandomAvgDegree(n, d, rand.New(rand.NewSource(seed)))
}

// BipartiteGraph samples a triangle-free bipartite random graph on n
// vertices with expected average degree d.
func BipartiteGraph(n int, d float64, seed int64) *Graph {
	return graph.BipartiteAvgDegree(n, d, rand.New(rand.NewSource(seed)))
}

// FarGraph samples a graph on n vertices with average degree ≈ d that is
// certifiably eps-far from triangle-free (eps ≤ 1/3). The second return
// value is the certified farness (≥ eps).
func FarGraph(n int, d, eps float64, seed int64) (*Graph, float64) {
	fg := graph.FarWithDegree(graph.FarParams{N: n, D: d, Eps: eps},
		rand.New(rand.NewSource(seed)))
	return fg.G, fg.CertEps
}

// ScenarioInstance is an instance generated from a declarative scenario
// spec, together with its certificate.
type ScenarioInstance struct {
	// Graph is the built instance.
	Graph *Graph
	// Planted is a family of pairwise edge-disjoint triangles (nil when
	// the family carries no farness certificate).
	Planted []Triangle
	// CertEps is the certified farness |Planted| / |E| (0 without a
	// certificate).
	CertEps float64
	// TriangleFree reports the construction guarantees no triangle.
	TriangleFree bool
	// Players, when non-nil, is the family-prescribed per-player edge
	// assignment; RunScenario uses it instead of the split scheme.
	Players [][]Edge
	// Spec is the canonical JSON spec that regenerates this instance with
	// the same seed.
	Spec string
}

// GenerateScenario builds the instance a scenario spec declares — spec is
// a registered family name or a JSON spec object — deterministically from
// the seed. The same (spec, seed) pair always yields the same instance,
// across the Go API, the CLIs, and the tricommd service.
func GenerateScenario(spec string, seed int64) (ScenarioInstance, error) {
	sp, err := scenario.Parse(spec)
	if err != nil {
		return ScenarioInstance{}, err
	}
	inst, err := scenario.Build(sp, rand.New(rand.NewSource(seed)))
	if err != nil {
		return ScenarioInstance{}, err
	}
	return ScenarioInstance{
		Graph:        inst.G,
		Planted:      inst.Planted,
		CertEps:      inst.CertEps,
		TriangleFree: inst.TriangleFree,
		Players:      inst.Players,
		Spec:         inst.Spec.JSON(),
	}, nil
}

// ScenarioUsage returns the scenario catalog as usage text (one family
// per entry with its parameters), generated from the registry.
func ScenarioUsage() string { return scenario.Usage() }

// Cluster builds the cluster a scenario instance declares: the
// family-prescribed per-player assignment when there is one, otherwise
// the given split of the generated graph.
func (si ScenarioInstance) Cluster(k int, scheme SplitScheme, seed uint64) (*Cluster, error) {
	if si.Players != nil {
		return NewCluster(si.Graph.N(), si.Players, seed)
	}
	return Split(si.Graph, k, scheme, seed)
}

// RunScenario generates the instance opts.Scenario declares (seeded
// deterministically), splits it among k players, and runs the selected
// tester — the one-call path from a declarative spec to a Report. It is
// seed-exact with the tricommd service: a job with the same scenario,
// options, and per-trial seed produces the identical verdict, bit count,
// and wire traffic.
func RunScenario(ctx context.Context, opts Options, k int, scheme SplitScheme, seed uint64) (Report, error) {
	if opts.Scenario == "" {
		return Report{}, errors.New("tricomm: RunScenario needs Options.Scenario")
	}
	si, err := GenerateScenario(opts.Scenario, int64(seed))
	if err != nil {
		return Report{}, err
	}
	cl, err := si.Cluster(k, scheme, seed)
	if err != nil {
		return Report{}, err
	}
	return cl.Test(ctx, opts)
}

// SplitScheme selects how a graph's edges are divided among players.
type SplitScheme int

// Split schemes.
const (
	// SplitDisjoint assigns each edge to one uniformly random player.
	SplitDisjoint SplitScheme = iota + 1
	// SplitDuplicate assigns each edge one random holder and replicates it
	// to every other player with probability 1/2 (the duplication-heavy
	// regime the paper's primitives are designed for).
	SplitDuplicate
	// SplitByVertex routes all edges with the same lower endpoint to the
	// same player (locality-skewed).
	SplitByVertex
	// SplitAll gives every player the entire edge set.
	SplitAll
)

// SplitSchemeNames returns the canonical split-scheme names accepted by
// ParseSplitScheme, in declaration order. CLI usage text and error
// messages are generated from this list, so it is the one place the
// vocabulary lives.
func SplitSchemeNames() []string {
	return []string{"disjoint", "duplicate", "byvertex", "all"}
}

// ParseSplitScheme maps the CLI/API names onto SplitScheme values.
func ParseSplitScheme(s string) (SplitScheme, error) {
	switch s {
	case "", "disjoint":
		return SplitDisjoint, nil
	case "duplicate":
		return SplitDuplicate, nil
	case "byvertex":
		return SplitByVertex, nil
	case "all":
		return SplitAll, nil
	default:
		return 0, fmt.Errorf("tricomm: unknown split scheme %q (valid: %s)",
			s, strings.Join(SplitSchemeNames(), ", "))
	}
}

func (s SplitScheme) partitioner() (partition.Partitioner, error) {
	switch s {
	case SplitDisjoint:
		return partition.Disjoint{}, nil
	case SplitDuplicate:
		return partition.Duplicate{Q: 0.5}, nil
	case SplitByVertex:
		return partition.ByVertex{}, nil
	case SplitAll:
		return partition.All{}, nil
	default:
		return nil, fmt.Errorf("tricomm: unknown split scheme %d", int(s))
	}
}

// Cluster is k players holding shares of an n-vertex graph plus the
// shared randomness — everything needed to run a protocol. The cluster
// lazily builds one comm.Topology (the players' local graph views) and
// reuses it across every Test call and Session, so repeated tests pay the
// view-construction cost once.
type Cluster struct {
	n      int
	inputs [][]Edge
	shared *xrand.Shared
	seed   uint64 // cluster seed; also seeds fault schedules when a spec pins none

	topOnce sync.Once
	top     *comm.Topology
	topErr  error
}

// topology returns the cluster's cached reusable topology.
func (c *Cluster) topology() (*comm.Topology, error) {
	c.topOnce.Do(func() {
		c.top, c.topErr = comm.NewTopology(c.n, c.inputs, c.shared)
	})
	return c.top, c.topErr
}

// NewCluster assembles a cluster from explicit per-player edge sets over
// the vertex universe [0, n). The protocol-level guarantee is about the
// union of the inputs.
func NewCluster(n int, inputs [][]Edge, seed uint64) (*Cluster, error) {
	if n < 0 {
		return nil, fmt.Errorf("tricomm: negative vertex count %d", n)
	}
	if len(inputs) == 0 {
		return nil, errors.New("tricomm: a cluster needs at least one player")
	}
	for j, in := range inputs {
		for _, e := range in {
			if e.U < 0 || e.V < 0 || e.U >= n || e.V >= n {
				return nil, fmt.Errorf("tricomm: player %d edge %v out of range [0,%d)", j, e, n)
			}
		}
	}
	return &Cluster{n: n, inputs: inputs, shared: xrand.New(seed), seed: seed}, nil
}

// Split divides g's edges among k players under the given scheme.
func Split(g *Graph, k int, scheme SplitScheme, seed uint64) (*Cluster, error) {
	pt, err := scheme.partitioner()
	if err != nil {
		return nil, err
	}
	if k < 1 {
		return nil, fmt.Errorf("tricomm: need at least one player, got %d", k)
	}
	shared := xrand.New(seed)
	p := pt.Split(g, k, shared)
	return &Cluster{n: g.N(), inputs: p.Inputs, shared: shared, seed: seed}, nil
}

// K reports the number of players.
func (c *Cluster) K() int { return len(c.inputs) }

// N reports the vertex universe size.
func (c *Cluster) N() int { return c.n }

// Union materializes the union graph ⋃_j E_j (for inspection; protocols
// never use it).
func (c *Cluster) Union() *Graph {
	b := graph.NewBuilder(c.n)
	for _, in := range c.inputs {
		for _, e := range in {
			b.AddEdge(e.U, e.V)
		}
	}
	return b.Build()
}

// Protocol selects the tester run by Cluster.Test.
type Protocol int

// Available protocols.
const (
	// Auto picks SimOblivious — the one-round protocol that needs no
	// knowledge of the average degree.
	Auto Protocol = iota
	// Interactive is the unrestricted coordinator-model tester,
	// Õ(k·(nd)^{1/4} + k²) bits (§3.3).
	Interactive
	// InteractiveBlackboard is its blackboard-model variant (Thm 3.23).
	InteractiveBlackboard
	// SimultaneousLow is the one-round tester for d = O(√n), Õ(k√n) bits.
	SimultaneousLow
	// SimultaneousHigh is the one-round tester for d = Ω(√n),
	// Õ(k·(nd)^{1/3}) bits.
	SimultaneousHigh
	// SimultaneousOblivious is the one-round degree-oblivious tester
	// (Alg 11).
	SimultaneousOblivious
	// Exact is the deterministic send-everything baseline (Θ(k·nd·log n)).
	Exact
)

// Transport selects what carries the coordinator-model sessions of a test
// run. Verdicts, witnesses, bits, rounds, and phase attribution are
// transport-independent (pinned by the invariant suite); transports differ
// only in wire mechanics and the Report.WireBytes timing on error paths.
type Transport int

// Available transports.
const (
	// TransportInProcess runs sessions over in-process channels — the
	// zero-copy default.
	TransportInProcess Transport = iota
	// TransportPipe runs sessions over synchronous net.Pipe connections.
	TransportPipe
	// TransportTCP runs sessions over real TCP loopback sockets; every
	// message is framed and crosses the kernel.
	TransportTCP
	// TransportWAN runs sessions over the simulated wide-area transport
	// with deterministic latency, bandwidth, and jitter injection.
	TransportWAN
)

// dialer maps the transport selector to its implementation.
func (t Transport) dialer() (transport.Dialer, error) {
	switch t {
	case TransportInProcess:
		return transport.Chan{}, nil
	case TransportPipe:
		return transport.Net{}, nil
	case TransportTCP:
		return transport.Net{TCP: true}, nil
	case TransportWAN:
		return transport.WAN{
			Latency:   100 * time.Microsecond,
			Jitter:    100 * time.Microsecond,
			Bandwidth: 256 << 20, // 256 MB/s
			Seed:      1,
		}, nil
	default:
		return nil, fmt.Errorf("tricomm: unknown transport %d", int(t))
	}
}

// TransportNames returns the canonical transport names accepted by
// ParseTransport, in declaration order (the generated-usage counterpart
// of SplitSchemeNames).
func TransportNames() []string {
	return []string{"chan", "pipe", "tcp", "wan"}
}

// ParseTransport maps the CLI/API names onto Transport values.
func ParseTransport(s string) (Transport, error) {
	switch s {
	case "", "chan", "in-process":
		return TransportInProcess, nil
	case "pipe":
		return TransportPipe, nil
	case "tcp":
		return TransportTCP, nil
	case "wan":
		return TransportWAN, nil
	default:
		return 0, fmt.Errorf("tricomm: unknown transport %q (valid: %s)",
			s, strings.Join(TransportNames(), ", "))
	}
}

// ProtocolNames returns the canonical protocol names accepted by
// ParseProtocol, in declaration order (the generated-usage counterpart of
// SplitSchemeNames).
func ProtocolNames() []string {
	return []string{"interactive", "blackboard", "sim-low", "sim-high", "sim-oblivious", "exact"}
}

// ParseProtocol maps the CLI/API names onto Protocol values.
func ParseProtocol(s string) (Protocol, error) {
	switch s {
	case "", "auto", "sim-oblivious":
		return SimultaneousOblivious, nil
	case "interactive":
		return Interactive, nil
	case "blackboard":
		return InteractiveBlackboard, nil
	case "sim-low":
		return SimultaneousLow, nil
	case "sim-high":
		return SimultaneousHigh, nil
	case "exact":
		return Exact, nil
	default:
		return 0, fmt.Errorf("tricomm: unknown protocol %q (valid: %s)",
			s, strings.Join(ProtocolNames(), ", "))
	}
}

// Options configures a test run.
type Options struct {
	// Protocol selects the tester; Auto uses SimultaneousOblivious.
	Protocol Protocol
	// Eps is the farness parameter the tester targets (default 0.1).
	Eps float64
	// AvgDegree, if positive, is the known average degree of the union
	// graph (required by SimultaneousLow/High; optional for Interactive).
	AvgDegree float64
	// AssumeDisjoint declares that the players' inputs are pairwise
	// disjoint (no edge duplication), letting the Interactive protocol use
	// the cheaper deterministic degree estimation of Lemma 3.2.
	AssumeDisjoint bool
	// Transport selects what carries the coordinator-model sessions
	// (default in-process channels). Results are transport-independent.
	Transport Transport
	// Scenario declares the instance under test for RunScenario: a
	// registered family name or a JSON spec (see ScenarioUsage for the
	// catalog). Cluster.Test ignores it — the cluster already holds its
	// instance.
	Scenario string
	// Faults injects deterministic link faults into the run: "" / "off" /
	// "none" (no faults), a preset name ("lossy", "chaos"), or a JSON
	// transport.FaultSpec. With faults enabled every link is hardened with
	// checksummed envelopes and a bounded retransmit budget; a run either
	// completes with a report byte-identical in verdict/witness/bits to the
	// fault-free run, or fails with ErrSessionAborted.
	Faults string
	// IntraWorkers is the width of the one-round referees' triangle
	// search: it runs on up to this many goroutines (at most 64); ≤ 0
	// defers to TRICOMM_INTRA_WORKERS, default 1. The players compute
	// serially, each on its own goroutine. Reports are bit-identical at
	// every width — the knob trades only wall clock.
	IntraWorkers int
}

func (o Options) withDefaults() Options {
	if o.Eps <= 0 {
		o.Eps = 0.1
	}
	return o
}

// Report is the outcome of a test run.
type Report struct {
	// TriangleFree is the verdict (one-sided: false means Witness is a
	// genuine triangle of the union graph).
	TriangleFree bool
	// Witness is the exhibited triangle when TriangleFree is false.
	Witness Triangle
	// Bits is the total communication used.
	Bits int64
	// PerPlayerBits is the per-player channel traffic.
	PerPlayerBits []int64
	// PhaseBits attributes bits to named protocol phases (e.g. "estimate",
	// "candidates", "edges" for the interactive tester). Phases are
	// disjoint — they sum to Bits — and come from the engine's per-phase
	// meter. Nil when the protocol declares no phases.
	PhaseBits map[string]int64
	// Rounds is the number of protocol rounds.
	Rounds int64
	// WireBytes is the framed wire traffic of the run's coordinator-model
	// sessions (headers included) — zero for purely simultaneous or
	// blackboard protocols, which exchange no transport frames. The engine
	// cross-checks it against Bits on every run (bytes ≥ link bits ÷ 8
	// within the framing overhead).
	WireBytes int64
	// Protocol names the tester that ran.
	Protocol string
	// Retransmits counts frames re-sent by the resilience layer after
	// injected loss; zero unless the run had Options.Faults enabled.
	Retransmits int64
	// FramesLost counts injected frame drops and corruptions; zero unless
	// the run had Options.Faults enabled.
	FramesLost int64
}

// ErrSessionAborted is returned by Test when injected link faults (see
// Options.Faults) kill the session: a hard disconnect, an exhausted
// retransmit budget, or a per-message deadline. It is the typed guarantee
// of the resilience layer — a faulted run never hangs, leaks, or reports
// an unsound verdict; it either completes or fails with this error.
var ErrSessionAborted = comm.ErrSessionAborted

// runner is a protocol bound to options, runnable over a reusable
// topology.
type runner interface {
	Name() string
	RunOn(ctx context.Context, top *comm.Topology) (protocol.Result, error)
}

// runner maps the selected protocol to its implementation.
func (o Options) runner() (runner, error) {
	switch o.Protocol {
	case Interactive:
		return protocol.Unrestricted{Eps: o.Eps, AvgDegree: o.AvgDegree,
			AssumeDisjoint: o.AssumeDisjoint}, nil
	case InteractiveBlackboard:
		return protocol.UnrestrictedBlackboard{Eps: o.Eps, AvgDegree: o.AvgDegree}, nil
	case SimultaneousLow:
		return protocol.SimLow{Eps: o.Eps, AvgDegree: o.AvgDegree}, nil
	case SimultaneousHigh:
		return protocol.SimHigh{Eps: o.Eps, AvgDegree: o.AvgDegree}, nil
	case Auto, SimultaneousOblivious:
		return protocol.SimOblivious{Eps: o.Eps}, nil
	case Exact:
		return protocol.ExactBaseline{}, nil
	default:
		return nil, fmt.Errorf("tricomm: unknown protocol %d", int(o.Protocol))
	}
}

func report(name string, res protocol.Result) Report {
	rep := Report{
		TriangleFree:  !res.Found(),
		Witness:       res.Triangle,
		Bits:          res.Stats.TotalBits,
		PerPlayerBits: res.Stats.PerPlayer,
		Rounds:        res.Stats.Rounds,
		WireBytes:     res.Stats.WireBytes,
		Protocol:      name,
		Retransmits:   res.Stats.Retransmits,
		FramesLost:    res.Stats.FramesLost,
	}
	// The engine meter's phase counters are disjoint by construction
	// (every bit lands in exactly the phase active when it was sent),
	// unlike the protocol-level Result.Phases, which keeps the paper's
	// overlapping aggregates (e.g. "buckets" = "candidates" + "edges")
	// for the experiment tables.
	if len(res.Stats.Phases) > 0 {
		rep.PhaseBits = make(map[string]int64, len(res.Stats.Phases))
		for _, p := range res.Stats.Phases {
			rep.PhaseBits[p.Name] = p.Bits
		}
	}
	return rep
}

// Test runs the selected triangle-freeness tester over the cluster. The
// cluster's cached topology is reused, so repeated calls skip the
// per-player view construction. Runs are deterministic in the cluster
// seed: calling Test twice with the same options returns the same report.
func (c *Cluster) Test(ctx context.Context, opts Options) (Report, error) {
	opts = opts.withDefaults()
	p, err := opts.runner()
	if err != nil {
		return Report{}, err
	}
	top, err := c.transportTopology(opts)
	if err != nil {
		return Report{}, err
	}
	res, err := p.RunOn(ctx, top)
	if err != nil {
		return Report{}, err
	}
	return report(p.Name(), res), nil
}

// Session is a tester bound to a cluster, with its options validated and
// its transport resolved once, for running many tests against one
// cluster. The player views a tester reads are built at the first read
// and reused by every later call; views it never reads are never built.
type Session struct {
	p   runner
	top *comm.Topology
}

// transportTopology returns the cluster's cached topology, rebased onto
// the transport opts selects. The expensive per-player state (the view
// cache) is shared across transports.
func (c *Cluster) transportTopology(opts Options) (*comm.Topology, error) {
	top, err := c.topology()
	if err != nil {
		return nil, err
	}
	if opts.IntraWorkers > 0 {
		top = top.WithIntraWorkers(opts.IntraWorkers)
	}
	faults, err := transport.ParseFaultSpec(opts.Faults)
	if err != nil {
		return nil, err
	}
	if !faults.Enabled() && opts.Transport == TransportInProcess {
		return top, nil
	}
	d, err := opts.Transport.dialer()
	if err != nil {
		return nil, err
	}
	if faults.Enabled() {
		// Seed the fault schedule from the cluster seed when the spec does
		// not pin one, so faulted runs are as reproducible as everything
		// else.
		d = transport.Faulty{Inner: d, Spec: faults.WithSeed(c.seed)}
	}
	return top.WithTransport(d), nil
}

// Session validates opts and binds the selected tester to the cluster.
// It builds no player view: a tester that reads one builds it at its
// first read, and the cluster keeps it for every later call.
func (c *Cluster) Session(opts Options) (*Session, error) {
	opts = opts.withDefaults()
	p, err := opts.runner()
	if err != nil {
		return nil, err
	}
	top, err := c.transportTopology(opts)
	if err != nil {
		return nil, err
	}
	return &Session{p: p, top: top}, nil
}

// Protocol names the tester the session runs.
func (s *Session) Protocol() string { return s.p.Name() }

// Test runs the session's tester once. Results are identical to
// Cluster.Test with the session's options.
func (s *Session) Test(ctx context.Context) (Report, error) {
	res, err := s.p.RunOn(ctx, s.top)
	if err != nil {
		return Report{}, err
	}
	return report(s.p.Name(), res), nil
}

// TestWithSeed reruns the session's tester with different shared
// randomness, derived from the cluster's seed and the given tag — the way
// to draw independent repetitions (amplifying the one-sided success
// probability) without rebuilding any per-player state.
func (s *Session) TestWithSeed(ctx context.Context, tag string) (Report, error) {
	res, err := s.p.RunOn(ctx, s.top.WithShared(s.top.Shared().Derive(tag)))
	if err != nil {
		return Report{}, err
	}
	return report(s.p.Name(), res), nil
}
