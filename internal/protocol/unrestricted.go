package protocol

import (
	"context"
	"fmt"
	"math"

	"tricomm/internal/bitset"
	"tricomm/internal/blocks"
	"tricomm/internal/bucket"
	"tricomm/internal/comm"
	"tricomm/internal/graph"
)

// UnrestrictedTunables exposes the constant factors of the unrestricted
// protocol. The paper fixes them for worst-case proofs
// (q = ln(6/δ)·108·log²n·k/ε² uniform samples per bucket, etc.); we keep
// the same functional forms with adjustable multipliers.
type UnrestrictedTunables struct {
	// CandidateFactor scales the number of uniform candidate samples per
	// bucket: q = CandidateFactor · k · ln n.
	CandidateFactor float64
	// KeepFactor scales how many degree-filtered candidates are edge-
	// sampled per bucket: |C| ≤ KeepFactor · ln n.
	KeepFactor float64
	// EdgeProbFactor scales the incident-edge sampling probability
	// p = EdgeProbFactor · sqrt(ln n / (ε·d̂(v))) (Lemma 3.9 / Cor. 3.10).
	EdgeProbFactor float64
	// DegreeAlpha is the ApproxDegree approximation ratio: 4^s for an
	// integer s ≥ 1 (see blocks.CheckAlpha).
	DegreeAlpha float64
	// CapSlack multiplies the per-player edge caps.
	CapSlack float64
}

// DefaultUnrestrictedTunables returns constants that empirically give the
// tester ≥ 95% completeness on the harness generators at ε ≥ 0.1 while
// keeping the simulation tractable.
func DefaultUnrestrictedTunables() UnrestrictedTunables {
	return UnrestrictedTunables{
		CandidateFactor: 3,
		KeepFactor:      4,
		EdgeProbFactor:  2,
		DegreeAlpha:     4,
		CapSlack:        2,
	}
}

// Unrestricted is the interactive tester of §3.3 (Algorithms 1–6):
// bucket iteration → uniform candidate sampling from B̃ᵢ → degree
// filtering → incident-edge sampling → vee closing. Cost
// Õ(k·(nd)^{1/4} + k²) with the paper's constants.
type Unrestricted struct {
	// Eps is the farness parameter the tester targets.
	Eps float64
	// AvgDegree, when positive, is the known average degree; when zero the
	// protocol estimates it first (Corollary 3.22 — the degree-oblivious
	// variant).
	AvgDegree float64
	// AssumeDisjoint declares the no-duplication promise: the players'
	// inputs are pairwise disjoint, so degree filtering can use the
	// deterministic O(k·log log d)-bit truncated-sum protocol of
	// Lemma 3.2 instead of the sampling rounds of Theorem 3.1
	// (Lemma 3.16's cheaper candidate phase).
	AssumeDisjoint bool
	// Tunables are the constant factors; zero value means defaults.
	Tunables UnrestrictedTunables
	// Tag scopes the shared randomness of this run.
	Tag string
}

// Name identifies the protocol in logs.
func (u Unrestricted) Name() string { return "unrestricted" }

// orDefault fills every unset (non-positive) factor with its default and
// rejects a DegreeAlpha that ApproxDegree would refuse, before any talk.
func (t UnrestrictedTunables) orDefault() (UnrestrictedTunables, error) {
	d := DefaultUnrestrictedTunables()
	if t.CandidateFactor <= 0 {
		t.CandidateFactor = d.CandidateFactor
	}
	if t.KeepFactor <= 0 {
		t.KeepFactor = d.KeepFactor
	}
	if t.EdgeProbFactor <= 0 {
		t.EdgeProbFactor = d.EdgeProbFactor
	}
	if t.DegreeAlpha <= 0 {
		t.DegreeAlpha = d.DegreeAlpha
	}
	if t.CapSlack <= 0 {
		t.CapSlack = d.CapSlack
	}
	if err := blocks.CheckAlpha(t.DegreeAlpha); err != nil {
		return t, fmt.Errorf("protocol: DegreeAlpha: %w", err)
	}
	return t, nil
}

// RunOn executes the tester in the coordinator model, reusing top's cached
// player views.
func (u Unrestricted) RunOn(ctx context.Context, top *comm.Topology) (Result, error) {
	if u.Eps <= 0 || u.Eps > 1 {
		return Result{}, fmt.Errorf("protocol: unrestricted needs 0 < eps ≤ 1, got %v", u.Eps)
	}
	t, err := u.Tunables.orDefault()
	if err != nil {
		return Result{}, err
	}
	res := Result{Verdict: TriangleFree}
	coord := func(ctx context.Context, c *comm.Coordinator) error {
		r, err := u.runCoordinator(ctx, c, t)
		if err != nil {
			return err
		}
		res.Verdict = r.Verdict
		res.Triangle = r.Triangle
		res.Phases = r.Phases
		return nil
	}
	stats, err := comm.RunOn(ctx, top, coord, comm.ServeLoop(blocks.Handle))
	res.Stats = stats
	if err != nil {
		return res, err
	}
	return res, nil
}

func (u Unrestricted) runCoordinator(ctx context.Context, c *comm.Coordinator, t UnrestrictedTunables) (Result, error) {
	res := Result{Verdict: TriangleFree}
	n := c.N
	lnN := math.Log(float64(n))
	if lnN < 1 {
		lnN = 1
	}
	tag := u.Tag
	if tag == "" {
		tag = "unrestricted"
	}

	// Degree window: use the known average degree, or estimate a
	// 4-approximation (Corollary 3.22) and widen the window accordingly.
	c.BeginPhase("estimate")
	d := u.AvgDegree
	slack := 1.0
	if d <= 0 {
		est, err := blocks.ApproxDistinctEdges(ctx, c, blocks.ApproxParams{
			Alpha: t.DegreeAlpha, Tau: 0.05, Tag: tag + "/m",
		})
		if err != nil {
			return res, err
		}
		if est == 0 {
			attributePhases(&res, c.Stats())
			return res, nil // empty graph is triangle-free
		}
		d = 2 * est / float64(n)
		slack = t.DegreeAlpha
	}

	dl, dh := bucket.DegreeWindow(n, d, u.Eps)
	dl /= slack
	dh *= slack
	lo, hi := bucket.BucketRange(n, dl, dh)

	q := int(math.Ceil(t.CandidateFactor * float64(c.K) * lnN))
	keep := int(math.Ceil(t.KeepFactor * lnN))
	sqrtA := math.Sqrt(t.DegreeAlpha)

	for i := lo; i <= hi; i++ {
		tri, found, err := u.findTriangleVee(ctx, c, i, q, keep, sqrtA, lnN, tag, t)
		if err != nil {
			return res, err
		}
		if found {
			res.Verdict = FoundTriangle
			res.Triangle = tri
			break
		}
	}
	attributePhases(&res, c.Stats())
	return res, nil
}

// attributePhases fills Result.Phases from the engine meter's disjoint
// phase counters, adding the paper's "buckets" aggregate (everything past
// the degree estimate — the candidate + edge pipeline) that the
// experiment tables report. The engine reports phases in declaration
// order, so the slot order here is deterministic.
func attributePhases(res *Result, stats comm.Stats) {
	for _, p := range stats.Phases {
		res.Phases.Set(p.Name, p.Bits)
	}
	res.Phases.Set("buckets", stats.TotalBits-res.Phases.Get("estimate"))
}

// findTriangleVee is FindTriangleVee(Bᵢ) (Algorithm 5): gather full-vertex
// candidates, then sample each candidate's incident edges and try to close
// a vee.
func (u Unrestricted) findTriangleVee(
	ctx context.Context, c *comm.Coordinator,
	bucketIdx, q, keep int, sqrtA, lnN float64, tag string, t UnrestrictedTunables,
) (tri graph.Triangle, found bool, err error) {
	type cand struct {
		v    int
		dEst float64
	}
	var cands []cand
	seen := bitset.Get(c.N)
	defer bitset.Put(seen)
	// GetFullCandidates (Algorithm 3): up to q uniform samples from B̃ᵢ,
	// degree-filtered to ~N(Bᵢ) — candidate work is the k²·polylog
	// additive term, metered under the "candidates" phase.
	c.BeginPhase("candidates")
	for count := 0; count < q && len(cands) < keep; count++ {
		v, ok, serr := blocks.SampleUniformCandidate(ctx, c, bucketIdx,
			fmt.Sprintf("%s/b%d/s%d", tag, bucketIdx, count))
		if serr != nil {
			return tri, false, serr
		}
		if !ok {
			break // no player has candidates for this bucket
		}
		if seen.Has(v) {
			continue
		}
		seen.Add(v)
		var dEst float64
		var derr error
		if u.AssumeDisjoint {
			// Lemma 3.2: deterministic truncated-sum estimate; it only
			// under-counts, by at most a (1 + 2^{1-topBits}) = 1.5 factor.
			dEst, derr = blocks.ApproxDegreeNoDup(ctx, c, v, 2)
		} else {
			dEst, derr = blocks.ApproxDegree(ctx, c, v, blocks.ApproxParams{
				Alpha: t.DegreeAlpha, Tau: 0.02, Tag: fmt.Sprintf("%s/b%d/d%d", tag, bucketIdx, v),
			})
		}
		if derr != nil {
			return tri, false, derr
		}
		loD := float64(bucket.DegMin(bucketIdx)) / sqrtA
		hiD := float64(bucket.DegMax(bucketIdx)) * sqrtA
		if u.AssumeDisjoint {
			loD = float64(bucket.DegMin(bucketIdx)) / 1.5
			hiD = float64(bucket.DegMax(bucketIdx))
		}
		if dEst >= loD && dEst <= hiD {
			cands = append(cands, cand{v: v, dEst: dEst})
		}
	}
	// SampleEdges + close (Algorithms 4–5) — the k·(nd)^{1/4} term,
	// metered under the "edges" phase.
	c.BeginPhase("edges")
	for ci, cd := range cands {
		dHat := cd.dEst
		if dHat < 2 {
			dHat = 2
		}
		p := t.EdgeProbFactor * math.Sqrt(lnN/(u.Eps*dHat))
		if p > 1 {
			p = 1
		}
		capPer := int(math.Ceil(t.CapSlack * sqrtA * dHat * p))
		arms, aerr := blocks.CollectIncidentSample(ctx, c, cd.v, p, capPer,
			fmt.Sprintf("%s/b%d/e%d", tag, bucketIdx, ci))
		if aerr != nil {
			return tri, false, aerr
		}
		if len(arms) < 2 {
			continue
		}
		got, ok, cerr := blocks.CloseStar(ctx, c, cd.v, arms)
		if cerr != nil {
			return tri, false, cerr
		}
		if ok {
			return got, true, nil
		}
	}
	return tri, false, nil
}
