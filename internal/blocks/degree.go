package blocks

import (
	"context"
	"fmt"
	"math"
	"math/bits"

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
}

// DefaultApprox returns the default estimator parameters (α = 4,
// τ = 0.05).
func DefaultApprox() ApproxParams {
	return ApproxParams{Alpha: 4, Tau: 0.05}
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

// Rounds returns R, the cap on an estimate's guessing rounds at k
// players, for an α that passes CheckAlpha: enough steps of √α to walk
// the first guess, at most 2kα times the count, down past it, plus two.
func (p ApproxParams) Rounds(k int) int {
	step := math.Ilogb(p.Alpha) / 2 // √α = 2^step
	return int(math.Ceil(math.Log2(2*float64(k)*p.Alpha)/float64(step))) + 2
}

// CheckAlpha returns an error unless alpha is 4^s for an integer s ≥ 1,
// the ratios whose rounds step the guess exponent down by s.
func CheckAlpha(alpha float64) error {
	// α = ½·2^exp is 4^s, s ≥ 1, exactly when exp is odd and at least 3.
	if frac, exp := math.Frexp(alpha); frac != 0.5 || exp%2 == 0 || exp < 3 {
		return fmt.Errorf("blocks: Alpha must be a power of 4 above 1, got %v", alpha)
	}
	return nil
}

// ApproxDegree estimates deg(v) in the union graph within a factor of
// prm.Alpha, tolerating arbitrary edge duplication across players
// (Theorem 3.1): ApproxDegrees on the one-vertex list [v].
func ApproxDegree(ctx context.Context, c *comm.Coordinator, v int, prm ApproxParams) (float64, error) {
	est, err := approxCardinalities(ctx, c, modeDegree, []int{v}, prm)
	if err != nil {
		return 0, err
	}
	return est[0], nil
}

// ApproxDistinctEdges estimates |E| = |⋃_j E_j| within a factor of
// prm.Alpha under duplication — the "distinct elements" corollary of
// Theorem 3.1, with the edge set as the universe.
func ApproxDistinctEdges(ctx context.Context, c *comm.Coordinator, prm ApproxParams) (float64, error) {
	est, err := approxCardinalities(ctx, c, modeEdges, []int{0}, prm)
	if err != nil {
		return 0, err
	}
	return est[0], nil
}

// ApproxDegrees estimates deg(v) in the union graph for every v in vs,
// each within a factor of prm.Alpha with probability ≥ 1−prm.Tau,
// tolerating arbitrary edge duplication across players (Theorem 3.1).
// Every round carries the whole list, so a list costs 1 + R rounds
// however long it is (R = prm.Rounds(k)):
//
//  1. MSB round: every player sends the bit-length of its local degree
//     d_j(v) for each listed v (Θ(log log n) bits each); their sum of
//     powers of two d′(v) brackets deg(v) within a 2k factor.
//  2. Guess halving: a vertex's guesses 2^j descend from 2^⌊log₂ d′(v)⌋
//     by factors of √α = 2^s. A round sends m once and (v, j) for every
//     vertex still undecided; vertex x of the request runs m
//     shared-randomness sampling experiments under the request's key's
//     Child(x) — sample each potential neighbor with probability 2^-j,
//     players answer one bit per experiment ("did my input hit the
//     sample?") — and stops at the first guess whose OR-success count
//     clears its threshold.
//
// Cost Θ(k·log log n + k·log k·m) bits per vertex. An isolated vertex
// estimates 0. A list longer than one request admits is split.
func ApproxDegrees(ctx context.Context, c *comm.Coordinator, vs []int, prm ApproxParams) ([]float64, error) {
	return approxCardinalities(ctx, c, modeDegree, vs, prm)
}

// approxCardinalities is the common estimator core over an abstract element
// universe.
func approxCardinalities(ctx context.Context, c *comm.Coordinator, mode countMode, vs []int, prm ApproxParams) ([]float64, error) {
	if err := CheckAlpha(prm.Alpha); err != nil {
		return nil, err
	}
	rounds := prm.Rounds(c.K)
	m := prm.experiments(rounds)
	est := make([]float64, len(vs))
	per := min(maxList, maxExperiments/m)
	for lo := 0; lo < len(vs); lo += per {
		hi := min(lo+per, len(vs))
		if err := estimateList(ctx, c, mode, vs[lo:hi], est[lo:hi], prm, rounds, m); err != nil {
			return nil, err
		}
	}
	return est, nil
}

// estimateList writes to est the estimates of a list that fits one
// request per round.
func estimateList(ctx context.Context, c *comm.Coordinator, mode countMode, vs []int, est []float64, prm ApproxParams, rounds, m int) error {
	// Phase 1: MSB exchange.
	w := reqWriter(opCountMSB)
	w.WriteUvarint(uint64(mode))
	writeList(w, vs)
	replies, err := c.AskAll(ctx, comm.FromWriter(w))
	if err != nil {
		return err
	}
	dPrime := make([]float64, len(vs))
	for _, msg := range replies {
		r := msg.Reader()
		for x := range vs {
			blen, err := r.ReadGamma() // bit length + 1 (so 0 count encodes as 1)
			if err != nil {
				return err
			}
			if blen > 1 {
				dPrime[x] += math.Pow(2, float64(blen-1))
			}
		}
	}
	// d′/(2k) ≤ true < d′. The first guess 2^⌊log₂ d′⌋ exceeds d′/2 >
	// true/2 ≥ true/√α, so it undershoots only inside the α-window. A
	// vertex's estimate is its current guess, so one that falls through
	// the whole bracket keeps its final guess, untested (as in the paper).
	step := math.Ilogb(prm.Alpha) / 2 // √α = 2^step
	js := make([]int, len(vs))
	var open []int // list positions still guessing
	for x, d := range dPrime {
		if d > 0 {
			js[x] = math.Ilogb(d) // ⌊log₂ d′⌋
			est[x] = math.Ldexp(1, js[x])
			open = append(open, x)
		}
	}
	for r := 0; r < rounds; r++ {
		var gv, gj []int
		live := open[:0]
		for _, x := range open {
			if js[x] > 0 { // a guess of 1 or less ends untested
				live = append(live, x)
				gv, gj = append(gv, vs[x]), append(gj, js[x])
			}
		}
		if open = live; len(open) == 0 {
			break
		}
		succ, err := sampleRound(ctx, c, sampleTestRequest(mode, m, gv, gj), len(open), m)
		if err != nil {
			return err
		}
		next := open[:0]
		for i, x := range open {
			// Expected success fraction if the guess were exact.
			guess := math.Ldexp(1, js[x])
			f := 1 - math.Pow(1-1/guess, guess)
			if float64(succ[i]) >= 0.6*f*float64(m) {
				continue // decided: est[x] is this guess
			}
			js[x] -= step
			est[x] = math.Ldexp(1, js[x])
			next = append(next, x)
		}
		open = next
	}
	return nil
}

// sampleRound sends one guessing round's request for count vertices of m
// experiments each and returns, per listed vertex, the number of
// experiments in which at least one player's input intersected the shared
// sample.
func sampleRound(ctx context.Context, c *comm.Coordinator, req comm.Msg, count, m int) ([]int, error) {
	replies, err := c.AskAll(ctx, req)
	if err != nil {
		return nil, err
	}
	// Experiment i of vertex x succeeds when any player's bit i of x is
	// set: OR the replies into one accumulator, 64 experiments per word,
	// then count.
	words := (m + 63) / 64
	hit := make([]uint64, count*words)
	for _, msg := range replies {
		r := msg.Reader()
		for i := range hit {
			word, err := r.ReadUint(min(64, m-64*(i%words)))
			if err != nil {
				return nil, err
			}
			hit[i] |= word
		}
	}
	succ := make([]int, count)
	for i, word := range hit {
		succ[i/words] += bits.OnesCount64(word)
	}
	return succ, nil
}

// SampleTestRequest is the guessing-round request ApproxDegrees sends
// every player: m experiments for each vertex vs[x] at guess 2^js[x].
// Benchmarks hand it straight to Handle.
func SampleTestRequest(m int, vs, js []int) comm.Msg {
	return sampleTestRequest(modeDegree, m, vs, js)
}

func sampleTestRequest(mode countMode, m int, vs, js []int) comm.Msg {
	w := reqWriter(opSampleTest)
	w.WriteUvarint(uint64(mode))
	w.WriteUvarint(uint64(m))
	w.WriteGamma(uint64(len(vs)))
	for x, v := range vs {
		w.WriteUvarint(uint64(v))
		w.WriteGamma(uint64(js[x]) + 1) // gamma codes start at 1
	}
	return comm.FromWriter(w)
}

// writeList appends a count request's vertex list: its gamma-coded
// length, then a varint per vertex.
func writeList(w *wire.Writer, vs []int) {
	w.WriteGamma(uint64(len(vs)))
	for _, v := range vs {
		w.WriteUvarint(uint64(v))
	}
}

func handleCountMSB(p *comm.Player, r *wire.Reader) (comm.Msg, error) {
	mode, err := readMode(r)
	if err != nil {
		return comm.Msg{}, err
	}
	count, err := readListLen(r)
	if err != nil {
		return comm.Msg{}, err
	}
	var w wire.Writer
	for x := 0; x < count; x++ {
		v, err := readVertex(r, mode, p.N)
		if err != nil {
			return comm.Msg{}, err
		}
		w.WriteGamma(uint64(bits.Len(uint(len(localElements(p, mode, v))))) + 1)
	}
	return comm.FromWriter(&w), nil
}

// handleSampleTest answers one guessing round under key, the request's
// key: listed vertex x samples under key.Child(x).
func handleSampleTest(p *comm.Player, key xrand.Key, r *wire.Reader) (comm.Msg, error) {
	mode, err := readMode(r)
	if err != nil {
		return comm.Msg{}, err
	}
	m, err := r.ReadUvarint()
	if err != nil {
		return comm.Msg{}, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	count, err := readListLen(r)
	if err != nil {
		return comm.Msg{}, err
	}
	if m > maxExperiments/uint64(count) {
		return comm.Msg{}, fmt.Errorf("%w: %d vertices × %d experiments exceed %d", ErrBadRequest, count, m, maxExperiments)
	}
	w := wire.NewWriter(count * int(m))
	for x := 0; x < count; x++ {
		v, err := readVertex(r, mode, p.N)
		if err != nil {
			return comm.Msg{}, err
		}
		jPlus1, err := r.ReadGamma()
		if err != nil {
			return comm.Msg{}, fmt.Errorf("%w: %v", ErrBadRequest, err)
		}
		if jPlus1 > 64 {
			return comm.Msg{}, fmt.Errorf("%w: guess exponent %d exceeds 63", ErrBadRequest, jPlus1-1)
		}
		sampleTest(w, key.Child(uint64(x)), localElements(p, mode, v), int(m), int(jPlus1-1))
	}
	return comm.FromWriter(w), nil
}

// sampleTest appends one vertex's m experiment bits at guess 2^j under
// base. Experiment 64w+b is bit 63−b of word w, the OR over local elements
// e of AND_{t<j} base.Child(64w+t).Hash(e): j fair coins, so e is sampled
// with probability exactly 2^-j, independently across elements and
// experiments, and every holder of e computes the same bits. An AND stops
// at zero, a word once full; the last word is cut to m−64w bits.
func sampleTest(w *wire.Writer, base xrand.Key, elems []uint64, m, j int) {
	var keys [63]xrand.Key
	for lo := 0; lo < m; lo += 64 {
		width := min(64, m-lo)
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
}

// readMode decodes a count request's universe, which must be modeDegree
// or modeEdges.
func readMode(r *wire.Reader) (countMode, error) {
	modeU, err := r.ReadUvarint()
	if err != nil {
		return 0, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	if mode := countMode(modeU); mode == modeDegree || mode == modeEdges {
		return mode, nil
	}
	return 0, fmt.Errorf("%w: unknown count mode %d", ErrBadRequest, modeU)
}

// readListLen decodes a count request's list length: a gamma code, so at
// least one vertex, and at most maxList.
func readListLen(r *wire.Reader) (int, error) {
	count, err := r.ReadGamma()
	if err != nil {
		return 0, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	if count > maxList {
		return 0, fmt.Errorf("%w: list of %d vertices exceeds %d", ErrBadRequest, count, maxList)
	}
	return int(count), nil
}

// readVertex decodes one listed vertex. Degree mode requires it to lie in
// [0, n); edge mode ignores it.
func readVertex(r *wire.Reader, mode countMode, n int) (int, error) {
	v, err := r.ReadUvarint()
	if err != nil {
		return 0, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	if mode == modeDegree && v >= uint64(n) {
		return 0, fmt.Errorf("%w: vertex %d not in [0,%d)", ErrBadRequest, v, n)
	}
	return int(v), nil
}

// ApproxDegreesNoDup estimates deg(v) for every v in vs when the players'
// inputs are promised disjoint (Lemma 3.2): for each listed vertex every
// player sends the top bits of its local count plus the cutoff exponent,
// and the coordinator sums the truncations. Each result under-counts by at
// most a (1+2^{-topBits}) factor — a deterministic O(k·log log n)-bit
// protocol per vertex, one round for the whole list.
func ApproxDegreesNoDup(ctx context.Context, c *comm.Coordinator, vs []int, topBits int) ([]float64, error) {
	if topBits < 1 || topBits > 64 {
		return nil, fmt.Errorf("blocks: topBits must be in [1, 64], got %d", topBits)
	}
	est := make([]float64, len(vs))
	for lo := 0; lo < len(vs); lo += maxList {
		hi := min(lo+maxList, len(vs))
		w := reqWriter(opCountTopBits)
		w.WriteUvarint(uint64(modeDegree))
		w.WriteUvarint(uint64(topBits))
		writeList(w, vs[lo:hi])
		replies, err := c.AskAll(ctx, comm.FromWriter(w))
		if err != nil {
			return nil, err
		}
		for _, m := range replies {
			r := m.Reader()
			for x := lo; x < hi; x++ {
				blen, err := r.ReadGamma()
				if err != nil {
					return nil, err
				}
				if blen == 1 {
					continue // zero local count
				}
				nbits := int(blen - 1)
				keep := min(topBits, nbits)
				top, err := r.ReadUint(keep)
				if err != nil {
					return nil, err
				}
				est[x] += float64(top) * math.Pow(2, float64(nbits-keep))
			}
		}
	}
	return est, nil
}

func handleCountTopBits(p *comm.Player, r *wire.Reader) (comm.Msg, error) {
	mode, err := readMode(r)
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
	count, err := readListLen(r)
	if err != nil {
		return comm.Msg{}, err
	}
	var w wire.Writer
	for x := 0; x < count; x++ {
		v, err := readVertex(r, mode, p.N)
		if err != nil {
			return comm.Msg{}, err
		}
		local := uint(len(localElements(p, mode, v)))
		nbits := bits.Len(local)
		w.WriteGamma(uint64(nbits) + 1)
		if nbits > 0 {
			keep := min(int(topBits), nbits)
			w.WriteUint(uint64(local)>>uint(nbits-keep), keep)
		}
	}
	return comm.FromWriter(&w), nil
}
