package blocks

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"strconv"

	"tricomm/internal/comm"
	"tricomm/internal/parwork"
	"tricomm/internal/wire"
	"tricomm/internal/xrand"
)

// ApproxParams tunes the duplication-tolerant cardinality estimator of
// Theorem 3.1. The defaults give a 4-approximation with small constant
// error; tests and benches may trade experiments for accuracy.
type ApproxParams struct {
	// Alpha > 1 is the approximation ratio target. The estimator returns a
	// value in [true/Alpha, Alpha·true] with probability ≥ 1-Tau.
	Alpha float64
	// Tau is the failure probability target.
	Tau float64
	// Tag scopes the shared randomness; distinct invocations must use
	// distinct tags.
	Tag string
}

// DefaultApprox returns the default estimator parameters (α = 4,
// τ = 0.05) under the given randomness tag.
func DefaultApprox(tag string) ApproxParams {
	return ApproxParams{Alpha: 4, Tau: 0.05, Tag: tag}
}

// experiments returns the per-round experiment count m: by a Chernoff
// bound, m = O(log(rounds/τ)) experiments separate the stop/continue
// success rates, whose gap is a constant for α ≥ 4 (see the analysis in
// Theorem 3.1: for guesses above α·true the success rate is ≤ 1/α, while
// the first guess below true/√α succeeds with rate ≥ 1-e^{-√α}).
func (p ApproxParams) experiments(rounds int) int {
	tau := p.Tau
	if tau <= 0 || tau >= 1 {
		tau = 0.05
	}
	if rounds < 1 {
		rounds = 1
	}
	// Deviation margin 0.1 on the success fraction; fail prob per round
	// 2·exp(-2·0.01·m) ≤ tau/rounds.
	m := int(math.Ceil(math.Log(2*float64(rounds)/tau) / 0.02))
	if m < 16 {
		m = 16
	}
	return m
}

// maxExperiments caps the experiment count m a player accepts in one
// SampleTest request. experiments stays below 40k for any float τ, so only
// a hostile request reaches the cap.
const maxExperiments = 1 << 16

func (p ApproxParams) validate() error {
	if p.Alpha <= 1 {
		return fmt.Errorf("blocks: Alpha must exceed 1, got %v", p.Alpha)
	}
	if p.Tag == "" {
		return fmt.Errorf("blocks: ApproxParams requires a Tag")
	}
	return nil
}

// ApproxDegree estimates deg(v) in the union graph within a factor of
// prm.Alpha, tolerating arbitrary edge duplication across players
// (Theorem 3.1). The protocol has two phases:
//
//  1. MSB round: every player sends the bit-length of its local degree
//     d_j(v) (Θ(log log n) bits); their sum of powers of two d′ brackets
//     deg(v) within a 2k factor.
//  2. Guess halving: guesses d″ descend from d′ by factors of √α. Each
//     round runs m shared-randomness sampling experiments — sample each
//     potential neighbor with probability 1/d″, players answer one bit per
//     experiment ("did my input hit the sample?") — and stops at the first
//     guess whose OR-success count clears the threshold.
//
// Cost Θ(k·log log n + k·log k·m). Returns 0 if v is isolated.
func ApproxDegree(ctx context.Context, c *comm.Coordinator, v int, prm ApproxParams) (float64, error) {
	return approxCardinality(ctx, c, modeDegree, v, prm)
}

// ApproxDistinctEdges estimates |E| = |⋃_j E_j| within a factor of
// prm.Alpha under duplication — the "distinct elements" corollary of
// Theorem 3.1, with the edge set as the universe.
func ApproxDistinctEdges(ctx context.Context, c *comm.Coordinator, prm ApproxParams) (float64, error) {
	return approxCardinality(ctx, c, modeEdges, 0, prm)
}

// approxCardinality is the common estimator core over an abstract element
// universe.
func approxCardinality(ctx context.Context, c *comm.Coordinator, mode countMode, v int, prm ApproxParams) (float64, error) {
	if err := prm.validate(); err != nil {
		return 0, err
	}
	// Phase 1: MSB exchange.
	w := reqWriter(opCountMSB)
	w.WriteUvarint(uint64(mode))
	w.WriteUvarint(uint64(v))
	replies, err := c.AskAll(ctx, comm.FromWriter(w))
	if err != nil {
		return 0, err
	}
	var dPrime float64
	for _, m := range replies {
		blen, err := m.Reader().ReadGamma() // bit length + 1 (so 0 count encodes as 1)
		if err != nil {
			return 0, err
		}
		if blen > 1 {
			dPrime += math.Pow(2, float64(blen-1))
		}
	}
	if dPrime == 0 {
		return 0, nil
	}
	// dPrime/(2k) ≤ true ≤ dPrime. Descend by √α per round.
	sqrtA := math.Sqrt(prm.Alpha)
	rounds := int(math.Ceil(math.Log(2*float64(c.K)*prm.Alpha)/math.Log(sqrtA))) + 2
	m := prm.experiments(rounds)
	guess := dPrime
	for r := 0; r < rounds && guess > 1; r++ {
		succ, err := sampleRound(ctx, c, mode, v, prm.Tag, r, m, guess)
		if err != nil {
			return 0, err
		}
		// Expected success fraction if guess were exact.
		f := 1 - math.Pow(1-1/guess, guess)
		if float64(succ) >= 0.6*f*float64(m) {
			return guess, nil
		}
		guess /= sqrtA
	}
	// Fell through the whole bracket: the count is at most ~√α, return the
	// final guess without an experiment (as in the paper).
	return guess, nil
}

// sampleRound runs one guessing round of m experiments and returns the
// number of experiments in which at least one player's input intersected
// the shared sample.
func sampleRound(ctx context.Context, c *comm.Coordinator, mode countMode, v int, tag string, round, m int, guess float64) (int, error) {
	replies, err := c.AskAll(ctx, sampleTestRequest(mode, v, tag, round, m, guess))
	if err != nil {
		return 0, err
	}
	// Experiment i succeeds when any player's bit i is set: OR the replies
	// into one accumulator, 64 experiments per word, then count.
	hit := make([]uint64, (m+63)/64)
	for _, msg := range replies {
		r := msg.Reader()
		for j := range hit {
			word, err := r.ReadUint(min(64, m-64*j))
			if err != nil {
				return 0, err
			}
			hit[j] |= word
		}
	}
	succ := 0
	for _, word := range hit {
		succ += bits.OnesCount64(word)
	}
	return succ, nil
}

// SampleTestRequest is the request ApproxDegree sends every player in
// guessing round `round` for vertex v: m experiments at the given guess,
// under the estimator's tag. Benchmarks hand it straight to Handle.
func SampleTestRequest(v int, tag string, round, m int, guess float64) comm.Msg {
	return sampleTestRequest(modeDegree, v, tag, round, m, guess)
}

func sampleTestRequest(mode countMode, v int, tag string, round, m int, guess float64) comm.Msg {
	w := reqWriter(opSampleTest)
	w.WriteUvarint(uint64(mode))
	w.WriteUvarint(uint64(v))
	w.WriteUvarint(uint64(round))
	w.WriteUvarint(uint64(m))
	// The guess must be bit-identical on all parties; ship its float bits.
	w.WriteUint(math.Float64bits(guess), 64)
	w.WriteBytes([]byte(tag))
	return comm.FromWriter(w)
}

func handleCountMSB(p *comm.Player, r *wire.Reader) (comm.Msg, error) {
	mode, v, err := readModeVertex(r, p.N)
	if err != nil {
		return comm.Msg{}, err
	}
	count := len(localElements(p, mode, v))
	var w wire.Writer
	w.WriteGamma(uint64(bits.Len(uint(count))) + 1)
	return comm.FromWriter(&w), nil
}

func handleSampleTest(p *comm.Player, r *wire.Reader) (comm.Msg, error) {
	mode, v, err := readModeVertex(r, p.N)
	if err != nil {
		return comm.Msg{}, err
	}
	round, err := r.ReadUvarint()
	if err != nil {
		return comm.Msg{}, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	m, err := r.ReadUvarint()
	if err != nil {
		return comm.Msg{}, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	if m > maxExperiments {
		return comm.Msg{}, fmt.Errorf("%w: %d experiments exceed %d", ErrBadRequest, m, maxExperiments)
	}
	guessBits, err := r.ReadUint(64)
	if err != nil {
		return comm.Msg{}, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	guess := math.Float64frombits(guessBits)
	if guess < 1 || math.IsNaN(guess) || math.IsInf(guess, 0) {
		return comm.Msg{}, fmt.Errorf("%w: bad guess %v", ErrBadRequest, guess)
	}
	tagBytes, err := r.ReadBytes(r.Remaining() / 8)
	if err != nil {
		return comm.Msg{}, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	elems := localElements(p, mode, v)
	threshold := xrand.Threshold(1 / guess)
	// Experiment i's key is Shared.Key("approx/<tag>/<mode>/<v>/<round>")
	// .Child(i): one SHA-256 per request, one splitmix step per experiment.
	tagKey := append(append([]byte("approx/"), tagBytes...), '/')
	tagKey = append(strconv.AppendUint(tagKey, uint64(mode), 10), '/')
	tagKey = append(strconv.AppendInt(tagKey, int64(v), 10), '/')
	tagKey = strconv.AppendUint(tagKey, round, 10)
	base := p.Shared.Key(string(tagKey))
	// The m experiments are independent — each derives its own key from
	// base and scans the player's elements — so they fan across the
	// player's workers 64 at a time. Word j holds experiments 64j… MSB
	// first, exactly the reply's bit order, and each chunk writes only its
	// own words, so the reply is identical at any width.
	mi := int(m)
	words := make([]uint64, (mi+63)/64)
	done := parRegion(p)
	parwork.ForEach(p.Workers, len(words), func(_, lo, hi int) {
		for j := lo; j < hi; j++ {
			var word uint64
			for i := 64 * j; i < min(64*j+64, mi); i++ {
				key := base.Child(uint64(i))
				hit := uint64(0)
				for _, e := range elems {
					if key.Below(e, threshold) {
						hit = 1
						break
					}
				}
				word = word<<1 | hit
			}
			words[j] = word
		}
	})
	done()
	w := wire.NewWriter(mi)
	for j, word := range words {
		w.WriteUint(word, min(64, mi-64*j))
	}
	return comm.FromWriter(w), nil
}

// readModeVertex decodes a count request's universe and vertex; degree
// mode requires the vertex to lie in [0, n).
func readModeVertex(r *wire.Reader, n int) (countMode, int, error) {
	modeU, err := r.ReadUvarint()
	if err != nil {
		return 0, 0, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	v, err := r.ReadUvarint()
	if err != nil {
		return 0, 0, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	if countMode(modeU) == modeDegree && v >= uint64(n) {
		return 0, 0, fmt.Errorf("%w: vertex %d not in [0,%d)", ErrBadRequest, v, n)
	}
	return countMode(modeU), int(v), nil
}

// ApproxDegreeNoDup estimates deg(v) when the players' inputs are promised
// disjoint (Lemma 3.2): every player sends the top bits of its local count
// plus the cutoff exponent, the coordinator sums the truncations. The
// result under-counts by at most a (1+2^{-topBits}) factor — a
// deterministic O(k·log log n)-bit protocol.
func ApproxDegreeNoDup(ctx context.Context, c *comm.Coordinator, v int, topBits int) (float64, error) {
	if topBits < 1 || topBits > 64 {
		return 0, fmt.Errorf("blocks: topBits must be in [1, 64], got %d", topBits)
	}
	w := reqWriter(opCountTopBits)
	w.WriteUvarint(uint64(modeDegree))
	w.WriteUvarint(uint64(v))
	w.WriteUvarint(uint64(topBits))
	replies, err := c.AskAll(ctx, comm.FromWriter(w))
	if err != nil {
		return 0, err
	}
	total := 0.0
	for _, m := range replies {
		r := m.Reader()
		blen, err := r.ReadGamma()
		if err != nil {
			return 0, err
		}
		if blen == 1 {
			continue // zero local count
		}
		nbits := int(blen - 1)
		keep := topBits
		if keep > nbits {
			keep = nbits
		}
		top, err := r.ReadUint(keep)
		if err != nil {
			return 0, err
		}
		total += float64(top) * math.Pow(2, float64(nbits-keep))
	}
	return total, nil
}

func handleCountTopBits(p *comm.Player, r *wire.Reader) (comm.Msg, error) {
	mode, v, err := readModeVertex(r, p.N)
	if err != nil {
		return comm.Msg{}, err
	}
	topBits, err := r.ReadUvarint()
	if err != nil {
		return comm.Msg{}, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	if topBits > 64 {
		return comm.Msg{}, fmt.Errorf("%w: top-bits width %d exceeds 64", ErrBadRequest, topBits)
	}
	count := uint(len(localElements(p, mode, v)))
	nbits := bits.Len(count)
	var w wire.Writer
	w.WriteGamma(uint64(nbits) + 1)
	if nbits > 0 {
		keep := int(topBits)
		if keep > nbits {
			keep = nbits
		}
		w.WriteUint(uint64(count)>>uint(nbits-keep), keep)
	}
	return comm.FromWriter(&w), nil
}
