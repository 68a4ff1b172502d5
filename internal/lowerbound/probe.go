package lowerbound

import (
	"context"
	"fmt"
	"math"

	"tricomm/internal/comm"
	"tricomm/internal/graph"
	"tricomm/internal/wire"
	"tricomm/internal/xrand"
)

// ProbeResult records one budget-capped strategy run on a µ instance.
type ProbeResult struct {
	// Success reports whether the strategy output a valid triangle edge of
	// Charlie's input.
	Success bool
	// Output is the edge output by the referee/Charlie (zero if none).
	Output wire.Edge
	// Bits is the communication actually used.
	Bits int64
	// Covered is the number of V1×V2 pairs covered by Alice/Bob vees that
	// the deciding party could certify — the quantity the §4 proofs bound
	// (quadratic in the budget for one-way, linear for simultaneous).
	Covered int
}

// OneWayProbe is the best-effort one-way strategy matching the structure
// of the Ω(n^{1/4}) bound (§4.2.2): concentrate the budget on a single
// star. Alice announces a vertex u* ∈ U of maximal degree in her input
// and up to B neighbors of it; Bob answers with up to B of his own
// neighbors of u*. Charlie, who observes the transcript, can certify
// |Alice's list| × |Bob's list| covered pairs — the quadratic advantage —
// and outputs any covered pair present in his input.
type OneWayProbe struct {
	// BudgetBits caps each of Alice's and Bob's messages.
	BudgetBits int
}

// Run executes the strategy on a µ instance.
func (p OneWayProbe) Run(inst MuInstance, shared *xrand.Shared) (ProbeResult, error) {
	if p.BudgetBits < 1 {
		return ProbeResult{}, fmt.Errorf("lowerbound: one-way probe needs a positive budget")
	}
	n := inst.N()
	vc := wire.NewVertexCodec(n)
	// Edge budget: each vertex id costs ⌈log₂ n⌉ bits, plus u* itself.
	maxList := (p.BudgetBits - vc.Width() - 16) / vc.Width()
	if maxList < 1 {
		maxList = 1
	}
	top, err := comm.NewTopology(n, inst.Inputs(), shared)
	if err != nil {
		return ProbeResult{}, err
	}
	res := ProbeResult{}
	owr, err := comm.RunOneWayOn(top,
		func(alice *comm.SimPlayer) (comm.Msg, error) {
			// Max-degree vertex of U in Alice's input.
			view := alice.View()
			best, bestDeg := 0, -1
			for u := 0; u < inst.NPart; u++ {
				if d := view.Degree(u); d > bestDeg {
					best, bestDeg = u, d
				}
			}
			var list []int
			for _, v := range view.Neighbors(best) {
				if len(list) >= maxList {
					break
				}
				list = append(list, int(v))
			}
			var w wire.Writer
			if err := vc.Put(&w, best); err != nil {
				return comm.Msg{}, err
			}
			if err := vc.PutVertexList(&w, list); err != nil {
				return comm.Msg{}, err
			}
			return comm.FromWriter(&w), nil
		},
		func(bob *comm.SimPlayer, aliceMsg comm.Msg) (comm.Msg, error) {
			r := aliceMsg.Reader()
			uStar, err := vc.Get(r)
			if err != nil {
				return comm.Msg{}, err
			}
			var list []int
			for _, v := range bob.View().Neighbors(uStar) {
				if len(list) >= maxList {
					break
				}
				list = append(list, int(v))
			}
			var w wire.Writer
			if err := vc.PutVertexList(&w, list); err != nil {
				return comm.Msg{}, err
			}
			return comm.FromWriter(&w), nil
		},
		func(charlie *comm.SimPlayer, aliceMsg, bobMsg comm.Msg) error {
			ra := aliceMsg.Reader()
			if _, err := vc.Get(ra); err != nil {
				return err
			}
			v1s, err := vc.GetVertexList(ra)
			if err != nil {
				return err
			}
			v2s, err := vc.GetVertexList(bobMsg.Reader())
			if err != nil {
				return err
			}
			res.Covered = len(v1s) * len(v2s)
			view := charlie.View()
			for _, v1 := range v1s {
				for _, v2 := range v2s {
					if view.HasEdge(v1, v2) {
						res.Output = wire.Edge{U: v1, V: v2}.Canon()
						res.Success = inst.IsValidOutput(res.Output)
						return nil
					}
				}
			}
			return nil
		})
	if err != nil {
		return ProbeResult{}, err
	}
	res.Bits = owr.Stats.TotalBits
	return res, nil
}

// SimProbe is the best-effort simultaneous strategy matching the
// structure of the Ω(√n) bound (§4.2.3): shared random windows
// U′ ⊆ U, W₁ ⊆ V1, W₂ ⊆ V2 sized to the budget; every player ships its
// window edges; the referee looks for a triangle in the union and outputs
// its V1×V2 edge. Without interaction Charlie must commit to (report)
// window edges blindly, so coverage is only linear in the budget — the
// gap the paper proves is inherent.
type SimProbe struct {
	// BudgetBits caps each player's message.
	BudgetBits int
	// Gamma is the µ parameter (needed to size the windows).
	Gamma float64
}

// windowSide returns the window side length s so that the expected number
// of window edges per player, s²·γ/√n, encodes within the budget.
func (p SimProbe) windowSide(n int) int {
	edgeBits := 2 * wire.BitsFor(n)
	budgetEdges := float64(p.BudgetBits-16) / float64(edgeBits)
	if budgetEdges < 1 {
		budgetEdges = 1
	}
	s := math.Sqrt(budgetEdges * math.Sqrt(float64(n)) / p.Gamma)
	side := int(s)
	if side < 1 {
		side = 1
	}
	if side > n/3 {
		side = n / 3
	}
	return side
}

// Run executes the strategy on a µ instance.
func (p SimProbe) Run(inst MuInstance, shared *xrand.Shared) (ProbeResult, error) {
	if p.BudgetBits < 1 || p.Gamma <= 0 {
		return ProbeResult{}, fmt.Errorf("lowerbound: sim probe needs positive budget and gamma")
	}
	n := inst.N()
	side := p.windowSide(n)
	frac := float64(side) / float64(inst.NPart)
	if frac > 1 {
		frac = 1
	}
	ec := wire.NewEdgeCodec(n)
	maxEdges := (p.BudgetBits - 16) / ec.Width()
	if maxEdges < 1 {
		maxEdges = 1
	}
	inWindow := func(v int) bool {
		// Window membership per part, via shared randomness.
		key := shared.Key(fmt.Sprintf("probe/window/%d", inst.Part(v)))
		return key.Bernoulli(uint64(v), frac)
	}
	top, err := comm.NewTopology(n, inst.Inputs(), shared)
	if err != nil {
		return ProbeResult{}, err
	}
	res := ProbeResult{}
	stats, err := comm.RunSimultaneousOn(context.Background(), top,
		func(pl *comm.SimPlayer) (comm.Msg, error) {
			var out []wire.Edge
			for _, e := range pl.Edges {
				if inWindow(e.U) && inWindow(e.V) {
					out = append(out, e)
					if len(out) >= maxEdges {
						break
					}
				}
			}
			var w wire.Writer
			if err := ec.PutEdgeList(&w, out); err != nil {
				return comm.Msg{}, err
			}
			return comm.FromWriter(&w), nil
		},
		func(_ *xrand.Shared, msgs []comm.Msg) error {
			b := graph.NewBuilder(n)
			charlieEdges := map[wire.Edge]bool{}
			for j, m := range msgs {
				edges, err := ec.GetEdgeList(m.Reader())
				if err != nil {
					return err
				}
				for _, e := range edges {
					b.AddEdge(e.U, e.V)
					if j == 2 {
						charlieEdges[e.Canon()] = true
					}
				}
			}
			res.Covered = len(charlieEdges)
			exposed := b.Build()
			if tri, ok := exposed.FindTriangle(); ok {
				// Output the V1×V2 edge of the triangle.
				for _, e := range tri.Edges() {
					if inst.Part(e.U) != 0 && inst.Part(e.V) != 0 {
						res.Output = e
						res.Success = inst.IsValidOutput(e)
						break
					}
				}
			}
			return nil
		})
	if err != nil {
		return ProbeResult{}, err
	}
	res.Bits = stats.TotalBits
	return res, nil
}
