package protocol

import (
	"context"
	"fmt"
	"math"

	"tricomm/internal/blocks"
	"tricomm/internal/comm"
	"tricomm/internal/wire"
)

// SimOblivious is the degree-oblivious simultaneous tester (§3.4.3,
// Algorithm 11). No party knows the average degree; instead each player j
// computes its local average degree d̄ⱼ = 2|Eⱼ|/n and — reasoning that if
// it is "relevant" the true degree lies in Dⱼ = [d̄ⱼ, (4k/ε)·d̄ⱼ] — runs
// O(log k) parallel instances, one per power-of-two degree guess in Dⱼ:
// AlgHigh instances for guesses ≥ √n and AlgLow instances below, all
// AlgLow instances sharing one R sample. Per-instance edge caps keyed to
// d̄ⱼ (Lemmas 3.30/3.31) keep each player's message within its budget.
// The referee unions everything; relevant players include the correct
// guess, so the union contains a triangle with high probability on ε-far
// inputs.
type SimOblivious struct {
	// Eps is the farness parameter.
	Eps float64
	// Tunables are the constant factors shared with SimHigh/SimLow.
	Tunables SimTunables
	// Tag scopes the shared randomness.
	Tag string
}

// Name identifies the protocol in logs.
func (s SimOblivious) Name() string { return "sim-oblivious" }

// guessRange returns the inclusive power-of-two exponent range covering
// D_j = [d̄_j, (4k/ε)·d̄_j] clipped to [1, n].
func (s SimOblivious) guessRange(localAvg float64, n, k int) (lo, hi int) {
	if localAvg < 1 {
		localAvg = 1
	}
	upper := 4 * float64(k) / s.Eps * localAvg
	if upper > float64(n) {
		upper = float64(n)
	}
	lo = int(math.Floor(math.Log2(localAvg)))
	hi = int(math.Ceil(math.Log2(upper)))
	if lo < 0 {
		lo = 0
	}
	if hi < lo {
		hi = lo
	}
	return lo, hi
}

// instanceCapHigh is the per-instance cap for AlgHigh instances:
// Õ((n·d̄ⱼ)^{1/3}) edges (Lemma 3.30).
func (s SimOblivious) instanceCapHigh(n int, localAvg float64) int {
	t := s.Tunables.orDefault()
	base := math.Cbrt(float64(n) * math.Max(localAvg, 1))
	return int(math.Ceil(t.CapSlack * base * math.Log(float64(n)+2)))
}

// instanceCapLow is the per-instance cap for AlgLow instances: Õ(√n)
// edges (Lemma 3.31).
func (s SimOblivious) instanceCapLow(n int) int {
	t := s.Tunables.orDefault()
	return int(math.Ceil(t.CapSlack * math.Sqrt(float64(n)) * math.Log(float64(n)+2)))
}

// RunOn executes the tester in the simultaneous model, reusing top's
// cached player views.
func (s SimOblivious) RunOn(ctx context.Context, top *comm.Topology) (Result, error) {
	if s.Eps <= 0 || s.Eps > 1 {
		return Result{}, fmt.Errorf("protocol: sim-oblivious needs 0 < eps ≤ 1, got %v", s.Eps)
	}
	tag := s.Tag
	if tag == "" {
		tag = "simobl"
	}
	return runOneRound(ctx, top, func(pl *comm.SimPlayer) (comm.Msg, error) { return s.message(pl, tag) },
		decodeInstanceLists(top.N()))
}

// message is player pl's message: an instance count, then per guess
// exponent the exponent and the instance's capped edge list. The low
// instances share R, so the player lists its edges that touch R once and
// each low instance filters only that list; each high instance is one
// pass over all the player's edges under its own sample.
func (s SimOblivious) message(pl *comm.SimPlayer, tag string) (comm.Msg, error) {
	t := s.Tunables.orDefault()
	n := pl.N
	sqrtN := math.Sqrt(float64(n))
	localAvg := 2 * float64(len(pl.Edges)) / math.Max(float64(n), 1)
	lo, hi := s.guessRange(localAvg, n, pl.K)
	r := pl.Shared.Key("vsample/" + tag + "/R").Sample(math.Min(t.C/sqrtN, 1))
	var touching []wire.Edge
	if math.Pow(2, float64(lo)) < sqrtN {
		// Guesses rise with the exponent, so the low instances are a
		// prefix of [lo, hi], present exactly when the first one is.
		touching = blocks.TouchingEdges(pl.Edges, r)
	}
	var w wire.Writer
	w.WriteUvarint(uint64(hi - lo + 1))
	ec := wire.NewEdgeCodec(n)
	for exp := lo; exp <= hi; exp++ {
		guess := math.Pow(2, float64(exp))
		var out []wire.Edge
		var capPer int
		if guess >= sqrtN {
			// AlgHigh instance for this guess.
			pS := math.Min(t.C*math.Cbrt(float64(n)*float64(n)/(s.Eps*guess))/float64(n), 1)
			sample := pl.Shared.Key(fmt.Sprintf("vsample/%s/high/%d", tag, exp)).Sample(pS)
			out = blocks.InducedEdges(pl.Edges, sample)
			capPer = s.instanceCapHigh(n, localAvg)
		} else {
			// AlgLow instance; S depends on the guess.
			p1 := 1.0
			if guess > t.C {
				p1 = t.C / guess
			}
			sample := pl.Shared.Key(fmt.Sprintf("vsample/%s/low/%d", tag, exp)).Sample(p1)
			out = blocks.CrossEdges(touching, r, sample)
			capPer = s.instanceCapLow(n)
		}
		if len(out) > capPer {
			out = out[:capPer]
		}
		w.WriteUvarint(uint64(exp))
		if err := ec.PutEdgeList(&w, out); err != nil {
			return comm.Msg{}, err
		}
	}
	return comm.FromWriter(&w), nil
}

// ExactBaseline is the exact triangle-detection baseline: every player
// ships its whole input and the referee answers exactly. Woodruff–Zhang
// [38] show Ω(k·nd) bits are necessary for exact detection, so this
// trivial protocol is optimal up to the log n edge-id factor — it is the
// comparison point for the paper's headline claim that property testing
// is exponentially cheaper (§5).
type ExactBaseline struct{}

// Name identifies the protocol in logs.
func (ExactBaseline) Name() string { return "exact-baseline" }

// RunOn executes the baseline in the simultaneous model, reusing top's
// cached player views.
func (ExactBaseline) RunOn(ctx context.Context, top *comm.Topology) (Result, error) {
	return runOneRound(ctx, top, func(pl *comm.SimPlayer) (comm.Msg, error) { return edgeListMsg(pl.N, pl.Edges) },
		decodeEdgeList(top.N()))
}
