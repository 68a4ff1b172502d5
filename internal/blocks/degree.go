package blocks

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"strconv"

	"tricomm/internal/comm"
	"tricomm/internal/wire"
	"tricomm/internal/xrand"
)

// ApproxParams tunes the duplication-tolerant cardinality estimator of
// Theorem 3.1. The defaults give a 4-approximation with small constant
// error; tests and benches may trade experiments for accuracy.
type ApproxParams struct {
	// Alpha = 4^s, s ≥ 1, is the approximation ratio target. The estimator
	// returns a value in [true/Alpha, Alpha·true] with probability ≥ 1-Tau.
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

// CheckAlpha returns an error unless alpha is 4^s for an integer s ≥ 1,
// the ratios whose rounds step the guess exponent down by s.
func CheckAlpha(alpha float64) error {
	// α = ½·2^exp is 4^s, s ≥ 1, exactly when exp is odd and at least 3.
	if frac, exp := math.Frexp(alpha); frac != 0.5 || exp%2 == 0 || exp < 3 {
		return fmt.Errorf("blocks: Alpha must be a power of 4 above 1, got %v", alpha)
	}
	return nil
}

func (p ApproxParams) validate() error {
	if err := CheckAlpha(p.Alpha); err != nil {
		return err
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
//  2. Guess halving: guesses 2^j descend from 2^⌊log₂ d′⌋ by factors of
//     √α = 2^s. Each round sends j and runs m shared-randomness sampling
//     experiments — sample each potential neighbor with probability 2^-j,
//     players answer one bit per experiment ("did my input hit the
//     sample?") — and stops at the first guess whose OR-success count
//     clears the threshold.
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
	// d′/(2k) ≤ true < d′. The first guess 2^⌊log₂ d′⌋ exceeds d′/2 >
	// true/2 ≥ true/√α, so it undershoots only inside the α-window.
	step := math.Ilogb(prm.Alpha) / 2 // √α = 2^step
	rounds := int(math.Ceil(math.Log2(2*float64(c.K)*prm.Alpha)/float64(step))) + 2
	m := prm.experiments(rounds)
	j := math.Ilogb(dPrime) // ⌊log₂ d′⌋
	for r := 0; r < rounds && j > 0; r++ {
		succ, err := sampleRound(ctx, c, mode, v, prm.Tag, r, m, j)
		if err != nil {
			return 0, err
		}
		// Expected success fraction if the guess were exact.
		guess := math.Ldexp(1, j)
		f := 1 - math.Pow(1-1/guess, guess)
		if float64(succ) >= 0.6*f*float64(m) {
			return guess, nil
		}
		j -= step
	}
	// Fell through the whole bracket: the count is at most ~√α, return the
	// final guess without an experiment (as in the paper).
	return math.Ldexp(1, j), nil
}

// sampleRound runs one guessing round of m experiments at guess 2^j and
// returns the number of experiments in which at least one player's input
// intersected the shared sample.
func sampleRound(ctx context.Context, c *comm.Coordinator, mode countMode, v int, tag string, round, m, j int) (int, error) {
	replies, err := c.AskAll(ctx, sampleTestRequest(mode, v, tag, round, m, j))
	if err != nil {
		return 0, err
	}
	// Experiment i succeeds when any player's bit i is set: OR the replies
	// into one accumulator, 64 experiments per word, then count.
	hit := make([]uint64, (m+63)/64)
	for _, msg := range replies {
		r := msg.Reader()
		for i := range hit {
			word, err := r.ReadUint(min(64, m-64*i))
			if err != nil {
				return 0, err
			}
			hit[i] |= word
		}
	}
	succ := 0
	for _, word := range hit {
		succ += bits.OnesCount64(word)
	}
	return succ, nil
}

// SampleTestRequest is the request ApproxDegree sends every player in
// guessing round `round` for vertex v: m experiments at guess 2^j, under
// the estimator's tag. Benchmarks hand it straight to Handle.
func SampleTestRequest(v int, tag string, round, m, j int) comm.Msg {
	return sampleTestRequest(modeDegree, v, tag, round, m, j)
}

func sampleTestRequest(mode countMode, v int, tag string, round, m, j int) comm.Msg {
	w := reqWriter(opSampleTest)
	w.WriteUvarint(uint64(mode))
	w.WriteUvarint(uint64(v))
	w.WriteUvarint(uint64(round))
	w.WriteUvarint(uint64(m))
	w.WriteGamma(uint64(j) + 1) // gamma codes start at 1
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
	jPlus1, err := r.ReadGamma()
	if err != nil {
		return comm.Msg{}, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	if jPlus1 > 64 {
		return comm.Msg{}, fmt.Errorf("%w: guess exponent %d exceeds 63", ErrBadRequest, jPlus1-1)
	}
	j := int(jPlus1 - 1)
	tagBytes, err := r.ReadBytes(r.Remaining() / 8)
	if err != nil {
		return comm.Msg{}, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	elems := localElements(p, mode, v)
	// One SHA-256 per request: base = Shared.Key("approx/<tag>/<mode>/<v>/<round>").
	tagKey := append(append([]byte("approx/"), tagBytes...), '/')
	tagKey = append(strconv.AppendUint(tagKey, uint64(mode), 10), '/')
	tagKey = append(strconv.AppendInt(tagKey, int64(v), 10), '/')
	tagKey = strconv.AppendUint(tagKey, round, 10)
	base := p.Shared.Key(string(tagKey))
	// Experiment 64w+b is bit 63−b of word w, the OR over local elements e
	// of AND_{t<j} base.Child(64w+t).Hash(e): j fair coins, so e is sampled
	// with probability exactly 2^-j, independently across elements and
	// experiments, and every holder of e computes the same bits. An AND
	// stops at zero, a word once full; the last word is cut to m−64w bits.
	mi := int(m)
	w := wire.NewWriter(mi)
	var keys [63]xrand.Key
	for lo := 0; lo < mi; lo += 64 {
		width := min(64, mi-lo)
		full := ^uint64(0) << (64 - width)
		for t := range keys[:j] {
			keys[t] = base.Child(uint64(lo + t))
		}
		var word uint64
		for _, e := range elems {
			and := full
			for _, key := range keys[:j] {
				if and &= key.Hash(e); and == 0 {
					break
				}
			}
			if word |= and; word == full {
				break
			}
		}
		w.WriteUint(word>>(64-width), width)
	}
	return comm.FromWriter(w), nil
}

// readModeVertex decodes a count request's universe and vertex. The
// universe must be modeDegree or modeEdges, and degree mode requires the
// vertex to lie in [0, n).
func readModeVertex(r *wire.Reader, n int) (countMode, int, error) {
	modeU, err := r.ReadUvarint()
	if err != nil {
		return 0, 0, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	mode := countMode(modeU)
	if mode != modeDegree && mode != modeEdges {
		return 0, 0, fmt.Errorf("%w: unknown count mode %d", ErrBadRequest, modeU)
	}
	v, err := r.ReadUvarint()
	if err != nil {
		return 0, 0, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	if mode == modeDegree && v >= uint64(n) {
		return 0, 0, fmt.Errorf("%w: vertex %d not in [0,%d)", ErrBadRequest, v, n)
	}
	return mode, int(v), nil
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
