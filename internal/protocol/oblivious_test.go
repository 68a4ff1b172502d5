package protocol

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"tricomm/internal/comm"
	"tricomm/internal/partition"
	"tricomm/internal/scenario"
	"tricomm/internal/wire"
	"tricomm/internal/xrand"
)

// obliviousOracle is SimOblivious's player message as a per-instance
// loop: every instance, low or high, filters all of the player's edges
// with Bernoulli point queries, and every low instance draws R afresh.
// TestObliviousMessageMatchesOracle holds SimOblivious.message to it bit
// for bit.
func obliviousOracle(s SimOblivious, pl *comm.SimPlayer, tag string) (comm.Msg, error) {
	t := s.Tunables.orDefault()
	n := pl.N
	sqrtN := math.Sqrt(float64(n))
	localAvg := 2 * float64(len(pl.Edges)) / math.Max(float64(pl.N), 1)
	lo, hi := s.guessRange(localAvg, pl.N, pl.K)
	var w wire.Writer
	w.WriteUvarint(uint64(hi - lo + 1))
	ec := wire.NewEdgeCodec(pl.N)
	for exp := lo; exp <= hi; exp++ {
		guess := math.Pow(2, float64(exp))
		var out []wire.Edge
		var capPer int
		if guess >= sqrtN {
			pS := t.C * math.Cbrt(float64(n)*float64(n)/(s.Eps*guess)) / float64(n)
			if pS > 1 {
				pS = 1
			}
			key := pl.Shared.Key(fmt.Sprintf("vsample/%s/high/%d", tag, exp))
			for _, e := range pl.Edges {
				if key.Bernoulli(uint64(e.U), pS) && key.Bernoulli(uint64(e.V), pS) {
					out = append(out, e)
				}
			}
			capPer = s.instanceCapHigh(n, localAvg)
		} else {
			p1 := 1.0
			if guess > t.C {
				p1 = t.C / guess
			}
			p2 := t.C / sqrtN
			if p2 > 1 {
				p2 = 1
			}
			keyR := pl.Shared.Key("vsample/" + tag + "/R")
			keyS := pl.Shared.Key(fmt.Sprintf("vsample/%s/low/%d", tag, exp))
			for _, e := range pl.Edges {
				ru, rv := keyR.Bernoulli(uint64(e.U), p2), keyR.Bernoulli(uint64(e.V), p2)
				if (ru && rv) || (ru && keyS.Bernoulli(uint64(e.V), p1)) || (rv && keyS.Bernoulli(uint64(e.U), p1)) {
					out = append(out, e)
				}
			}
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

// sameBits reports whether two messages hold the same bit string.
func sameBits(a, b comm.Msg) bool {
	if a.Bits() != b.Bits() {
		return false
	}
	ra, rb := a.Reader(), b.Reader()
	for ra.Remaining() > 0 {
		width := min(64, ra.Remaining())
		x, errA := ra.ReadUint(width)
		y, errB := rb.ReadUint(width)
		if errA != nil || errB != nil || x != y {
			return false
		}
	}
	return true
}

// obliviousCase is one instance split among players.
type obliviousCase struct {
	name   string
	n      int
	eps    float64
	inputs [][]wire.Edge
	shared *xrand.Shared
}

// completeEdges returns the edges of the complete graph on n vertices.
func completeEdges(n int) []wire.Edge {
	var es []wire.Edge
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			es = append(es, wire.Edge{U: u, V: v})
		}
	}
	return es
}

// dealEdges deals edges round-robin to k players.
func dealEdges(es []wire.Edge, k int) [][]wire.Edge {
	in := make([][]wire.Edge, k)
	for i, e := range es {
		in[i%k] = append(in[i%k], e)
	}
	return in
}

func obliviousCases(t *testing.T) []obliviousCase {
	t.Helper()
	var cases []obliviousCase
	splits := []partition.Partitioner{partition.Disjoint{}, partition.Duplicate{Q: 0.5}, partition.All{}}
	specs := []string{
		`{"family":"far","n":4096,"d":8,"eps":0.2}`,
		`{"family":"bipartite","n":4096,"d":8}`,
		`{"family":"chung-lu","n":2048,"d":8}`,
		`{"family":"dup-adversary","n":2048,"d":8,"eps":0.2,"k":4}`,
	}
	for _, spec := range specs {
		sp, err := scenario.Parse(spec)
		if err != nil {
			t.Fatal(err)
		}
		for seed := uint64(1); seed <= 3; seed++ {
			inst, err := scenario.Build(sp, rand.New(rand.NewSource(int64(seed))))
			if err != nil {
				t.Fatal(err)
			}
			shared := xrand.New(seed)
			if inst.Players != nil { // the family prescribes the split
				cases = append(cases, obliviousCase{fmt.Sprintf("%s/seed%d", sp.Family, seed),
					inst.G.N(), 0.2, inst.Players, shared})
				continue
			}
			for _, pt := range splits {
				cases = append(cases, obliviousCase{fmt.Sprintf("%s/%s/seed%d", sp.Family, pt.Name(), seed),
					inst.G.N(), 0.2, pt.Split(inst.G, 4, shared).Inputs, shared})
			}
		}
	}
	// The corners of the parameter space. For n ≤ 9, C/√n ≥ 1 and R holds
	// every vertex; a complete graph at n = 64 fills the caps, and given
	// to every player it leaves no low instance at all.
	for _, n := range []int{1, 2, 4, 9, 64} {
		for _, k := range []int{1, 3} {
			cases = append(cases,
				obliviousCase{fmt.Sprintf("complete%d/dealt/k%d", n, k), n, 0.2, dealEdges(completeEdges(n), k), xrand.New(uint64(n))},
				obliviousCase{fmt.Sprintf("complete%d/all/k%d", n, k), n, 0.2, [][]wire.Edge{completeEdges(n), completeEdges(n), completeEdges(n)}[:k], xrand.New(uint64(n))})
		}
	}
	bip, err := scenario.Build(scenario.Spec{Family: "bipartite", N: 4096, D: 2}, rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	sparse := partition.Disjoint{}.Split(bip.G, 8, xrand.New(4)).Inputs
	cases = append(cases,
		// Local averages of 0.25: every guess range starts at 1 ≤ C, so p1 = 1.
		obliviousCase{"local-avg-below-1", 4096, 0.2, sparse, xrand.New(4)},
		// Players with no edges at all, beside one that holds every edge.
		obliviousCase{"empty-players", 4096, 0.5, [][]wire.Edge{nil, bip.G.Edges(), {}}, xrand.New(5)},
		// ε = 1 narrows the guess range.
		obliviousCase{"eps-1", 4096, 1, sparse, xrand.New(6)},
	)
	return cases
}

// TestObliviousMessageMatchesOracle requires every player's message to be
// the per-instance loop's, bit for bit.
func TestObliviousMessageMatchesOracle(t *testing.T) {
	var low, high, mixed, capped int
	for _, c := range obliviousCases(t) {
		s := SimOblivious{Eps: c.eps}
		for j, edges := range c.inputs {
			pl := &comm.SimPlayer{ID: j, K: len(c.inputs), N: c.n, Edges: edges, Shared: c.shared}
			want, err := obliviousOracle(s, pl, "simobl")
			if err != nil {
				t.Fatalf("%s player %d: oracle: %v", c.name, j, err)
			}
			got, err := s.message(pl, "simobl")
			if err != nil {
				t.Fatalf("%s player %d: %v", c.name, j, err)
			}
			if !sameBits(got, want) {
				t.Fatalf("%s player %d: message of %d bits differs from the oracle's %d",
					c.name, j, got.Bits(), want.Bits())
			}
			l, h, capHit, err := instanceShape(s, c.n, 2*float64(len(edges))/math.Max(float64(c.n), 1), want)
			if err != nil {
				t.Fatalf("%s player %d: decode: %v", c.name, j, err)
			}
			low += l
			high += h
			if l > 0 && h > 0 {
				mixed++
			}
			if capHit {
				capped++
			}
		}
	}
	t.Logf("%d low and %d high instances, %d players with both, %d hitting a cap", low, high, mixed, capped)
	if low == 0 || high == 0 || mixed == 0 || capped == 0 {
		t.Fatalf("cases exercise %d low and %d high instances, %d players with both, %d hitting a cap; want each > 0",
			low, high, mixed, capped)
	}
}

// instanceShape decodes a SimOblivious message of an n-vertex instance
// into its counts of low and high instances, and reports whether an
// instance's list sits at its cap.
func instanceShape(s SimOblivious, n int, localAvg float64, m comm.Msg) (low, high int, capHit bool, err error) {
	r := m.Reader()
	ec := wire.NewEdgeCodec(n)
	instances, err := r.ReadUvarint()
	for i := uint64(0); err == nil && i < instances; i++ {
		var exp uint64
		var es []wire.Edge
		if exp, err = r.ReadUvarint(); err == nil {
			es, err = ec.GetEdgeList(r)
		}
		capPer := s.instanceCapLow(n)
		if math.Pow(2, float64(exp)) >= math.Sqrt(float64(n)) {
			high++
			capPer = s.instanceCapHigh(n, localAvg)
		} else {
			low++
		}
		capHit = capHit || len(es) == capPer
	}
	return low, high, capHit, err
}
