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
	"tricomm/internal/xrand"
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
	// Tag is the public run tag that scopes the shared randomness of this
	// run (default "unrestricted"). Every party derives it; it is never
	// sent.
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
	if u.Tag == "" {
		u.Tag = "unrestricted"
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
	stats, err := comm.RunOn(ctx, top, coord, blocks.Serve(u.Tag))
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
	run := c.Shared.Key(u.Tag)

	// Degree window: use the known average degree, or estimate a
	// 4-approximation (Corollary 3.22) and widen the window accordingly.
	c.BeginPhase("estimate")
	d := u.AvgDegree
	slack := 1.0
	if d <= 0 {
		est, err := blocks.ApproxDistinctEdges(ctx, c, blocks.ApproxParams{Alpha: t.DegreeAlpha, Tau: 0.05})
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
		tri, found, err := u.findTriangleVee(ctx, c, run, i, q, keep, sqrtA, lnN, t)
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

// candidate is a degree-filtered vertex of B̃ᵢ and its degree estimate.
type candidate struct {
	v    int
	dEst float64
}

// findTriangleVee is FindTriangleVee(Bᵢ) (Algorithm 5): gather full-vertex
// candidates, then sample each candidate's incident edges and try to close
// a vee.
func (u Unrestricted) findTriangleVee(
	ctx context.Context, c *comm.Coordinator, run xrand.Key,
	bucketIdx, q, keep int, sqrtA, lnN float64, t UnrestrictedTunables,
) (tri graph.Triangle, found bool, err error) {
	cands, err := u.fullCandidates(ctx, c, run, bucketIdx, q, keep, sqrtA, t)
	if err != nil {
		return tri, false, err
	}
	// SampleEdges + close (Algorithms 4–5) — the k·(nd)^{1/4} term,
	// metered under the "edges" phase. It runs one candidate at a time
	// and stops at the first closed vee.
	c.BeginPhase("edges")
	for _, cd := range cands {
		dHat := cd.dEst
		if dHat < 2 {
			dHat = 2
		}
		p := t.EdgeProbFactor * math.Sqrt(lnN/(u.Eps*dHat))
		if p > 1 {
			p = 1
		}
		capPer := int(math.Ceil(t.CapSlack * sqrtA * dHat * p))
		arms, aerr := blocks.CollectIncidentSample(ctx, c, cd.v, p, capPer)
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

// fullCandidates is GetFullCandidates (Algorithm 3): up to q uniform
// samples from B̃ᵢ, degree-filtered to ~N(Bᵢ), keeping at most keep —
// candidate work is the k²·polylog additive term, metered under the
// "candidates" phase. The samples are independent, so they are drawn in
// waves: one round draws w = min(q − drawn, keep − kept) samples, and one
// estimator pass filters the wave's fresh vertices. Each sample adds at
// most one candidate, so a wave cannot pass keep, and the waves draw the
// samples a one-at-a-time loop would: duplicates are skipped in sample
// order and the candidates keep that order. A wave costs one round plus
// 1 + R estimator rounds (R = ApproxParams.Rounds), or one more round
// under AssumeDisjoint, however many samples it holds.
func (u Unrestricted) fullCandidates(
	ctx context.Context, c *comm.Coordinator, run xrand.Key,
	bucketIdx, q, keep int, sqrtA float64, t UnrestrictedTunables,
) ([]candidate, error) {
	c.BeginPhase("candidates")
	loD := float64(bucket.DegMin(bucketIdx)) / sqrtA
	hiD := float64(bucket.DegMax(bucketIdx)) * sqrtA
	if u.AssumeDisjoint {
		loD = float64(bucket.DegMin(bucketIdx)) / 1.5
		hiD = float64(bucket.DegMax(bucketIdx))
	}
	var cands []candidate
	seen := bitset.Get(c.N)
	defer bitset.Put(seen)
	for count := 0; count < q && len(cands) < keep; {
		w := min(q-count, keep-len(cands))
		vs, err := blocks.SampleUniformCandidates(ctx, c, run, bucketIdx, w)
		if err != nil {
			return nil, err
		}
		if len(vs) == 0 {
			break // no player has candidates for this bucket
		}
		count += w
		fresh := vs[:0]
		for _, v := range vs {
			if !seen.Has(v) {
				seen.Add(v)
				fresh = append(fresh, v)
			}
		}
		if len(fresh) == 0 {
			continue
		}
		var ests []float64
		if u.AssumeDisjoint {
			// Lemma 3.2: deterministic truncated-sum estimate; it only
			// under-counts, by at most a (1 + 2^{1-topBits}) = 1.5 factor.
			ests, err = blocks.ApproxDegreesNoDup(ctx, c, fresh, 2)
		} else {
			ests, err = blocks.ApproxDegrees(ctx, c, fresh, blocks.ApproxParams{Alpha: t.DegreeAlpha, Tau: 0.02})
		}
		if err != nil {
			return nil, err
		}
		for x, v := range fresh {
			if ests[x] >= loD && ests[x] <= hiD {
				cands = append(cands, candidate{v: v, dEst: ests[x]})
			}
		}
	}
	return cands, nil
}
