package protocol

import (
	"context"
	"fmt"
	"math"
	"time"

	"tricomm/internal/blocks"
	"tricomm/internal/comm"
	"tricomm/internal/graph"
	"tricomm/internal/parwork"
	"tricomm/internal/wire"
	"tricomm/internal/xrand"
)

// SimTunables exposes the constant factors of the simultaneous protocols.
type SimTunables struct {
	// C scales the vertex-sampling probabilities (the paper's constant c;
	// its proof value 8/(9δ) is conservative).
	C float64
	// CapSlack multiplies the per-player edge caps (the paper's Markov
	// caps l and q).
	CapSlack float64
}

// DefaultSimTunables returns empirically sufficient constants.
func DefaultSimTunables() SimTunables {
	return SimTunables{C: 3, CapSlack: 4}
}

func (t SimTunables) orDefault() SimTunables {
	d := DefaultSimTunables()
	if t.C <= 0 {
		t.C = d.C
	}
	if t.CapSlack <= 0 {
		t.CapSlack = d.CapSlack
	}
	return t
}

// simRefereeResult runs the standard referee: union the received edge
// lists and search them for a triangle. Every received edge is a real
// input edge, so a reported triangle is always genuine (one-sided error).
// The triangle search fans across up to workers goroutines (raw request;
// ≤0 defers to the environment) with the same witness at any width.
func simRefereeResult(n int, msgs []comm.Msg, decode func(m comm.Msg) ([]wire.Edge, error), workers int) (Result, error) {
	b := graph.NewBuilder(n)
	for _, m := range msgs {
		edges, err := decode(m)
		if err != nil {
			return Result{}, err
		}
		for _, e := range edges {
			b.AddEdge(e.U, e.V)
		}
	}
	exposed := b.Build()
	res := Result{Verdict: TriangleFree}
	if tri, ok := exposed.FindTriangleN(workers); ok {
		res.Verdict = FoundTriangle
		res.Triangle = tri
	}
	return res, nil
}

// simParRegion times an intra-phase parallel region of a simultaneous
// player for the observability meter; at width 1 it is free (metrics
// only, never Stats).
func simParRegion(p *comm.SimPlayer) func() {
	if p.Workers <= 1 {
		return func() {}
	}
	t0 := time.Now()
	return func() { p.ObserveParallel(time.Since(t0)) }
}

func decodeEdgeList(n int) func(m comm.Msg) ([]wire.Edge, error) {
	ec := wire.NewEdgeCodec(n)
	return func(m comm.Msg) ([]wire.Edge, error) {
		return ec.GetEdgeList(m.Reader())
	}
}

// decodeInstanceLists decodes a SimOblivious message: an instance count,
// then per instance its guess exponent and edge list. The referee needs
// only the edges, so it returns the instances' lists concatenated.
func decodeInstanceLists(n int) func(m comm.Msg) ([]wire.Edge, error) {
	ec := wire.NewEdgeCodec(n)
	return func(m comm.Msg) ([]wire.Edge, error) {
		r := m.Reader()
		instances, err := r.ReadUvarint()
		if err != nil {
			return nil, err
		}
		var edges []wire.Edge
		for i := uint64(0); i < instances; i++ {
			if _, err := r.ReadUvarint(); err != nil { // guess exponent
				return nil, err
			}
			es, err := ec.GetEdgeList(r)
			if err != nil {
				return nil, err
			}
			edges = append(edges, es...)
		}
		return edges, nil
	}
}

// SimHigh is the high-degree simultaneous tester (§3.4.1, Algorithms 7/9):
// every player sends its edges inside the shared random vertex set S of
// size Θ((n²/(ε·d))^{1/3}); the referee looks for a triangle in the union.
// Intended for d = Ω(√n); cost Õ(k·(nd)^{1/3}).
type SimHigh struct {
	// Eps is the farness parameter.
	Eps float64
	// AvgDegree is the (known) average degree d.
	AvgDegree float64
	// Delta is the error target used to size the Markov cap.
	Delta float64
	// Tunables are the constant factors.
	Tunables SimTunables
	// Tag scopes the shared randomness.
	Tag string
}

// Name identifies the protocol in logs.
func (s SimHigh) Name() string { return "sim-high" }

// SampleProb returns the per-vertex inclusion probability |S|/n used by
// the protocol for an n-vertex graph.
func (s SimHigh) SampleProb(n int) float64 {
	t := s.Tunables.orDefault()
	size := t.C * math.Cbrt(float64(n)*float64(n)/(s.Eps*s.AvgDegree))
	p := size / float64(n)
	if p > 1 {
		p = 1
	}
	return p
}

// Cap returns the per-player edge cap (the paper's l, scaled).
func (s SimHigh) Cap(n int) int {
	t := s.Tunables.orDefault()
	delta := s.Delta
	if delta <= 0 {
		delta = 0.1
	}
	p := s.SampleProb(n)
	expected := p * p * float64(n) * s.AvgDegree / 2
	return int(math.Ceil(t.CapSlack / delta * (expected + 1)))
}

// RunOn executes the tester in the simultaneous model, reusing top's
// cached player views.
func (s SimHigh) RunOn(ctx context.Context, top *comm.Topology) (Result, error) {
	if s.Eps <= 0 || s.AvgDegree <= 0 {
		return Result{}, fmt.Errorf("protocol: sim-high needs eps > 0 and known degree, got eps=%v d=%v", s.Eps, s.AvgDegree)
	}
	tag := s.Tag
	if tag == "" {
		tag = "simhigh"
	}
	n := top.N()
	p := s.SampleProb(n)
	capPer := s.Cap(n)
	var res Result
	stats, err := comm.RunSimultaneousOn(ctx, top,
		func(pl *comm.SimPlayer) (comm.Msg, error) {
			key := pl.Shared.Key("vsample/" + tag)
			// Order-preserving parallel filter over pure point queries of
			// the shared key: the kept set (and the cap truncation) is
			// bit-identical to the serial append loop at any width.
			done := simParRegion(pl)
			out := parwork.Filter(pl.Workers, pl.Edges, func(_ int, e wire.Edge) bool {
				return key.Bernoulli(uint64(e.U), p) && key.Bernoulli(uint64(e.V), p)
			})
			done()
			if len(out) > capPer {
				out = out[:capPer]
			}
			var w wire.Writer
			if err := wire.NewEdgeCodec(pl.N).PutEdgeList(&w, out); err != nil {
				return comm.Msg{}, err
			}
			return comm.FromWriter(&w), nil
		},
		func(_ *xrand.Shared, msgs []comm.Msg) error {
			r, err := simRefereeResult(n, msgs, decodeEdgeList(n), top.IntraWorkers())
			if err != nil {
				return err
			}
			res = r
			return nil
		})
	res.Stats = stats
	return res, err
}

// SimLow is the low-degree simultaneous tester (§3.4.2, Algorithms 8/10):
// shared samples S (probability min(c/d, 1)) and R (probability c/√n);
// every player sends its edges with one endpoint in R and the other in
// R ∪ S. Intended for d = O(√n); cost Õ(k·√n).
type SimLow struct {
	// Eps is the farness parameter (enters only through the analysis; the
	// sampling probabilities depend on d and n).
	Eps float64
	// AvgDegree is the (known) average degree d.
	AvgDegree float64
	// Delta is the error target used to size the Markov cap.
	Delta float64
	// Tunables are the constant factors.
	Tunables SimTunables
	// Tag scopes the shared randomness.
	Tag string
}

// Name identifies the protocol in logs.
func (s SimLow) Name() string { return "sim-low" }

// Probs returns (p1, p2): the S and R inclusion probabilities.
func (s SimLow) Probs(n int) (float64, float64) {
	t := s.Tunables.orDefault()
	p1 := 1.0
	if s.AvgDegree > t.C {
		p1 = t.C / s.AvgDegree
	}
	p2 := t.C / math.Sqrt(float64(n))
	if p2 > 1 {
		p2 = 1
	}
	return p1, p2
}

// Cap returns the per-player edge cap (the paper's q, scaled).
func (s SimLow) Cap(n int) int {
	t := s.Tunables.orDefault()
	delta := s.Delta
	if delta <= 0 {
		delta = 0.1
	}
	return int(math.Ceil(t.CapSlack * t.C * t.C * (math.Sqrt(float64(n)) + s.AvgDegree) * 2 / delta))
}

// RunOn executes the tester in the simultaneous model, reusing top's
// cached player views.
func (s SimLow) RunOn(ctx context.Context, top *comm.Topology) (Result, error) {
	if s.Eps <= 0 || s.AvgDegree <= 0 {
		return Result{}, fmt.Errorf("protocol: sim-low needs eps > 0 and known degree, got eps=%v d=%v", s.Eps, s.AvgDegree)
	}
	tag := s.Tag
	if tag == "" {
		tag = "simlow"
	}
	n := top.N()
	p1, p2 := s.Probs(n)
	capPer := s.Cap(n)
	var res Result
	stats, err := comm.RunSimultaneousOn(ctx, top,
		func(pl *comm.SimPlayer) (comm.Msg, error) {
			keyR := pl.Shared.Key("vsample/" + tag + "/R")
			keyS := pl.Shared.Key("vsample/" + tag + "/S")
			done := simParRegion(pl)
			out := blocks.CrossSampleEdgesN(pl.Edges, keyR, keyS, p2, p1, pl.Workers)
			done()
			if len(out) > capPer {
				out = out[:capPer]
			}
			var w wire.Writer
			if err := wire.NewEdgeCodec(pl.N).PutEdgeList(&w, out); err != nil {
				return comm.Msg{}, err
			}
			return comm.FromWriter(&w), nil
		},
		func(_ *xrand.Shared, msgs []comm.Msg) error {
			r, err := simRefereeResult(n, msgs, decodeEdgeList(n), top.IntraWorkers())
			if err != nil {
				return err
			}
			res = r
			return nil
		})
	res.Stats = stats
	return res, err
}
