package protocol

import (
	"context"
	"fmt"
	"math"

	"tricomm/internal/blocks"
	"tricomm/internal/comm"
)

// NaiveUniform is the ablation of the unrestricted tester that motivates
// §3.3's bucketing: it samples uniformly random vertices (instead of
// candidates from the degree buckets B̃ᵢ), then runs the same
// degree-estimate → edge-sample → close-vee pipeline on each. On inputs
// whose triangles all touch a few high-degree hubs (PlantedDenseCore), a
// uniform vertex sample almost never hits a hub, so this tester fails
// where the bucketed one succeeds — with comparable communication.
type NaiveUniform struct {
	// Eps is the farness parameter.
	Eps float64
	// Samples is the number of uniform vertex samples (0 means the same
	// q = 3·k·ln n budget the bucketed tester uses per bucket).
	Samples int
	// Tunables are shared with Unrestricted.
	Tunables UnrestrictedTunables
	// Tag scopes the shared randomness.
	Tag string
}

// Name identifies the protocol in logs.
func (p NaiveUniform) Name() string { return "naive-uniform" }

// RunOn executes the ablated tester in the coordinator model, reusing
// top's cached player views.
func (p NaiveUniform) RunOn(ctx context.Context, top *comm.Topology) (Result, error) {
	if p.Eps <= 0 || p.Eps > 1 {
		return Result{}, fmt.Errorf("protocol: naive-uniform needs 0 < eps ≤ 1, got %v", p.Eps)
	}
	t, err := p.Tunables.orDefault()
	if err != nil {
		return Result{}, err
	}
	tag := p.Tag
	if tag == "" {
		tag = "naive"
	}
	res := Result{Verdict: TriangleFree}
	coord := func(ctx context.Context, c *comm.Coordinator) error {
		lnN := math.Log(float64(c.N))
		if lnN < 1 {
			lnN = 1
		}
		samples := p.Samples
		if samples <= 0 {
			samples = int(math.Ceil(t.CandidateFactor * float64(c.K) * lnN))
		}
		key := c.Shared.Key("naive/" + tag)
		sqrtA := math.Sqrt(t.DegreeAlpha)
		for i := 0; i < samples; i++ {
			v := int(key.Hash(uint64(i)) % uint64(c.N))
			dEst, err := blocks.ApproxDegree(ctx, c, v, blocks.ApproxParams{
				Alpha: t.DegreeAlpha, Tau: 0.02, Tag: fmt.Sprintf("%s/d%d", tag, i),
			})
			if err != nil {
				return err
			}
			if dEst < 2 {
				continue
			}
			prob := t.EdgeProbFactor * math.Sqrt(lnN/(p.Eps*dEst))
			if prob > 1 {
				prob = 1
			}
			capPer := int(math.Ceil(t.CapSlack * sqrtA * dEst * prob))
			arms, err := blocks.CollectIncidentSample(ctx, c, v, prob, capPer,
				fmt.Sprintf("%s/e%d", tag, i))
			if err != nil {
				return err
			}
			if len(arms) < 2 {
				continue
			}
			tri, ok, err := blocks.CloseStar(ctx, c, v, arms)
			if err != nil {
				return err
			}
			if ok {
				res.Verdict = FoundTriangle
				res.Triangle = tri
				return nil
			}
		}
		return nil
	}
	stats, err := comm.RunOn(ctx, top, coord, comm.ServeLoop(blocks.Handle))
	res.Stats = stats
	if err != nil {
		return res, err
	}
	return res, nil
}
