package protocol

import (
	"context"
	"fmt"
	"math"
	"math/bits"

	"tricomm/internal/bitset"
	"tricomm/internal/bucket"
	"tricomm/internal/comm"
	"tricomm/internal/graph"
	"tricomm/internal/wire"
)

// UnrestrictedBlackboard is the blackboard-model variant of the
// unrestricted tester (Theorem 3.23). The algorithm is the same bucket →
// candidate → edge-sampling pipeline, but every message is posted publicly
// and charged once, and in the edge-sampling phase the players post in
// turns, never repeating an arm already on the board — which is where the
// factor-k saving over the coordinator model comes from
// (Õ((nd)^{1/4} + k²) total).
//
// Degree estimation is replaced by the cheaper public-MSB protocol: each
// player posts the bit-length of its local degree, giving a 2k-range
// bracket; the candidate window is widened accordingly. This preserves the
// cost shape (the paper's blackboard bound keeps the k² polylog additive
// term) while keeping the variant self-contained.
type UnrestrictedBlackboard struct {
	// Eps is the farness parameter.
	Eps float64
	// AvgDegree, when positive, is the known average degree; otherwise it
	// is estimated from public MSB posts.
	AvgDegree float64
	// Tunables are shared with the coordinator-model protocol.
	Tunables UnrestrictedTunables
	// Tag scopes the shared randomness.
	Tag string
}

// Name identifies the protocol in logs.
func (u UnrestrictedBlackboard) Name() string { return "unrestricted-blackboard" }

// RunOn executes the tester synchronously against a Board, reusing top's
// cached player views.
func (u UnrestrictedBlackboard) RunOn(ctx context.Context, top *comm.Topology) (Result, error) {
	if u.Eps <= 0 || u.Eps > 1 {
		return Result{}, fmt.Errorf("protocol: blackboard needs 0 < eps ≤ 1, got %v", u.Eps)
	}
	if err := ctx.Err(); err != nil {
		return Result{}, fmt.Errorf("%w: %v", comm.ErrCanceled, err)
	}
	t, err := u.Tunables.orDefault()
	if err != nil {
		return Result{}, err
	}
	players := comm.BoardPlayersOn(top)
	board := comm.NewBoard(top.K())
	res := Result{Verdict: TriangleFree}

	n := top.N()
	k := top.K()
	lnN := math.Log(float64(n))
	if lnN < 1 {
		lnN = 1
	}
	tag := u.Tag
	if tag == "" {
		tag = "bb"
	}
	vc := wire.NewVertexCodec(n)

	// Phase 0: average degree. Public MSBs of local edge counts give
	// m ≤ m̂ ≤ 2k·m when unknown.
	board.BeginPhase("estimate")
	d := u.AvgDegree
	slack := 1.0
	if d <= 0 {
		var mHat float64
		for _, p := range players {
			blen := bits.Len(uint(len(p.Edges)))
			var w wire.Writer
			w.WriteGamma(uint64(blen) + 1)
			if err := board.Post(p.ID, comm.FromWriter(&w)); err != nil {
				return res, err
			}
			if blen > 0 {
				mHat += math.Pow(2, float64(blen))
			}
		}
		if mHat == 0 {
			res.Stats = board.Stats()
			return res, nil
		}
		d = 2 * mHat / float64(n)
		slack = 2 * float64(k)
	}

	dl, dh := bucket.DegreeWindow(n, d, u.Eps)
	dl /= slack
	dh *= math.Sqrt(slack) + 1
	lo, hi := bucket.BucketRange(n, dl, dh)

	q := int(math.Ceil(t.CandidateFactor * float64(k) * lnN))
	keep := int(math.Ceil(t.KeepFactor * lnN))

	// Reusable scratch for the bucket loop: the seen-candidate and
	// posted-arm sets are pooled epoch-marked slices reset per use, not
	// per-iteration map allocations.
	seen := bitset.Get(n)
	defer bitset.Put(seen)
	posted := bitset.Get(n)
	defer bitset.Put(posted)

	members := make([][]int, len(players))
	board.BeginPhase("buckets")
	for i := lo; i <= hi; i++ {
		board.Round()
		type cand struct {
			v    int
			dEst float64
		}
		var cands []cand
		seen.Reset(n)
		// Each player lists its bucket members once; a sample ranks the
		// list, not the whole view.
		for j, p := range players {
			members[j] = bucket.AppendMembers(members[j][:0], p.View(), i, k)
		}
		for count := 0; count < q && len(cands) < keep; count++ {
			// Candidate sampling: every player posts its min-rank local
			// candidate; the global minimum is public.
			key := top.Shared().Key(fmt.Sprintf("cand/%s/b%d/s%d", tag, i, count))
			best, found := -1, false
			for j, p := range players {
				var w wire.Writer
				w.WriteBool(len(members[j]) > 0)
				if len(members[j]) > 0 {
					lv := bucket.First(members[j], key)
					if err := vc.Put(&w, lv); err != nil {
						return res, err
					}
					if !found || key.Before(uint64(lv), uint64(best)) {
						best, found = lv, true
					}
				}
				if err := board.Post(p.ID, comm.FromWriter(&w)); err != nil {
					return res, err
				}
			}
			if !found {
				break
			}
			if seen.Has(best) {
				continue
			}
			seen.Add(best)
			// Public MSB degree bracket: d(v) ≤ d′(v) ≤ 2k·d(v).
			var dPrime float64
			for _, p := range players {
				blen := bits.Len(uint(p.View().Degree(best)))
				var w wire.Writer
				w.WriteGamma(uint64(blen) + 1)
				if err := board.Post(p.ID, comm.FromWriter(&w)); err != nil {
					return res, err
				}
				if blen > 0 {
					dPrime += math.Pow(2, float64(blen))
				}
			}
			if dPrime == 0 {
				continue
			}
			// Window check with the 2k bracket slack.
			loD := float64(bucket.DegMin(i))
			hiD := float64(bucket.DegMax(i)) * 2 * float64(k) * math.Sqrt(t.DegreeAlpha)
			if dPrime < loD || dPrime > hiD {
				continue
			}
			// Point estimate: geometric mean of the bracket.
			cands = append(cands, cand{v: best, dEst: dPrime / math.Sqrt(2*float64(k))})
		}
		// Edge phase: players post sampled arms in turns without repeats —
		// each arm reaches the board exactly once.
		for ci, cd := range cands {
			dHat := math.Max(cd.dEst, 2)
			p := t.EdgeProbFactor * math.Sqrt(lnN/(u.Eps*dHat))
			if p > 1 {
				p = 1
			}
			capTotal := int(math.Ceil(t.CapSlack * math.Sqrt(t.DegreeAlpha) * dHat * p * 2))
			key := top.Shared().Key(fmt.Sprintf("star/%s/b%d/e%d", tag, i, ci))
			posted.Reset(n)
			var arms []int
			for _, pl := range players {
				var fresh []int
				for _, u32 := range pl.View().Neighbors(cd.v) {
					if uu := int(u32); !posted.Has(uu) && key.Bernoulli(uint64(uu), p) {
						posted.Add(uu)
						fresh = append(fresh, uu)
					}
				}
				if len(arms)+len(fresh) > capTotal {
					over := len(arms) + len(fresh) - capTotal
					if over >= len(fresh) {
						fresh = nil
					} else {
						fresh = fresh[:len(fresh)-over]
					}
				}
				var w wire.Writer
				if err := vc.PutVertexList(&w, fresh); err != nil {
					return res, err
				}
				if err := board.Post(pl.ID, comm.FromWriter(&w)); err != nil {
					return res, err
				}
				arms = append(arms, fresh...)
			}
			// Closing: the first player holding an edge between two posted
			// arms posts the triangle.
			for _, pl := range players {
				if u1, u2, ok := pl.View().FirstArmPair(arms); ok {
					tri := graph.Triangle{A: cd.v, B: u1, C: u2}.Canon()
					var w wire.Writer
					if err := vc.Put(&w, tri.A); err != nil {
						return res, err
					}
					if err := vc.Put(&w, tri.B); err != nil {
						return res, err
					}
					if err := vc.Put(&w, tri.C); err != nil {
						return res, err
					}
					if err := board.Post(pl.ID, comm.FromWriter(&w)); err != nil {
						return res, err
					}
					res.Verdict = FoundTriangle
					res.Triangle = tri
					res.Stats = board.Stats()
					attributePhases(&res, res.Stats)
					return res, nil
				}
			}
		}
	}
	res.Stats = board.Stats()
	attributePhases(&res, res.Stats)
	return res, nil
}
