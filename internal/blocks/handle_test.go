package blocks

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"tricomm/internal/comm"
	"tricomm/internal/graph"
	"tricomm/internal/stats"
	"tricomm/internal/wire"
	"tricomm/internal/xrand"
)

// handlePlayer is a small fixed player for feeding raw requests straight
// to Handle, outside any session.
func handlePlayer() *comm.Player {
	g := graph.FromEdges(8, []wire.Edge{{U: 0, V: 1}, {U: 0, V: 2}, {U: 1, V: 2}, {U: 2, V: 3}, {U: 3, V: 4}, {U: 5, V: 6}})
	return &comm.Player{ID: 0, K: 2, N: 8, Edges: g.Edges(), View: g, Shared: xrand.New(3), Workers: 1}
}

// request encodes one request for handlePlayer: the opcode, then the
// fields in order.
func request(op uint64, fields ...func(w *wire.Writer)) *wire.Writer {
	w := reqWriter(op)
	for _, f := range fields {
		f(w)
	}
	return w
}

func uv(v uint64) func(*wire.Writer) { return func(w *wire.Writer) { w.WriteUvarint(v) } }

func vertex(v int) func(*wire.Writer) {
	return func(w *wire.Writer) { w.WriteUint(uint64(v), wire.BitsFor(8)) }
}

func float(f float64) func(*wire.Writer) {
	return func(w *wire.Writer) { w.WriteUint(math.Float64bits(f), 64) }
}

func tag(s string) func(*wire.Writer) { return func(w *wire.Writer) { w.WriteBytes([]byte(s)) } }

// exponent writes a SampleTest guess exponent j as the gamma code of j+1.
func exponent(j uint64) func(*wire.Writer) { return func(w *wire.Writer) { w.WriteGamma(j + 1) } }

// validRequests holds one well-formed request per opcode.
func validRequests() []*wire.Writer {
	return []*wire.Writer{
		request(opEdgeQuery, vertex(0), vertex(1)),
		request(opMinRankIncident, vertex(2), tag("t")),
		request(opCountMSB, uv(uint64(modeDegree)), uv(2)),
		request(opSampleTest, uv(uint64(modeDegree)), uv(2), uv(0), uv(16), exponent(1), tag("t")),
		request(opCountTopBits, uv(uint64(modeDegree)), uv(2), uv(3)),
		request(opCollectIncidentSample, vertex(2), float(0.5), uv(0), tag("t")),
		request(opCloseVees, vertex(2), uv(3), vertex(0), vertex(1), vertex(3)),
		request(opCandidateMinRank, uv(1), tag("t")),
		request(opNeighbors, vertex(2)),
		request(opNeighborBitmap, vertex(2)),
	}
}

// hostileRequests holds request fields that would crash or hang a player
// if Handle passed them on.
var hostileRequests = []struct {
	name string
	w    *wire.Writer
}{
	{"count-msb vertex ≥ N", request(opCountMSB, uv(uint64(modeDegree)), uv(8))},
	{"sample-test vertex ≥ N", request(opSampleTest, uv(uint64(modeDegree)), uv(1<<63), uv(0), uv(16), exponent(1), tag("t"))},
	{"count-top-bits vertex ≥ N", request(opCountTopBits, uv(uint64(modeDegree)), uv(9), uv(3))},
	{"sample-test experiments above cap", request(opSampleTest, uv(uint64(modeDegree)), uv(2), uv(0), uv(maxExperiments+1), exponent(1), tag("t"))},
	{"sample-test exponent above 63", request(opSampleTest, uv(uint64(modeDegree)), uv(2), uv(0), uv(16), exponent(64), tag("t"))},
	{"top bits ≥ 2^63", request(opCountTopBits, uv(uint64(modeDegree)), uv(2), uv(1<<63))},
	{"bucket index 2^40", request(opCandidateMinRank, uv(1<<40), tag("t"))},
	{"unknown count mode", request(opSampleTest, uv(3), uv(2), uv(0), uv(16), exponent(1), tag("t"))},
	// No coordinator sends the retired opcodes; each carries its old body.
	{"retired opcode 3", request(3, tag("t"))},
	{"retired opcode 7", request(7, float(0.5), uv(0), tag("t"))},
	{"retired opcode 8", request(8, float(0.5), float(0.5), uv(0), uv(1), tag("r"), tag("s"))},
}

func TestHandleRejectsHostileFields(t *testing.T) {
	p := handlePlayer()
	for _, w := range validRequests() {
		if _, err := Handle(p, comm.FromWriter(w)); err != nil {
			t.Fatalf("valid request rejected: %v", err)
		}
	}
	for _, tc := range hostileRequests {
		if _, err := Handle(p, comm.FromWriter(tc.w)); !errors.Is(err, ErrBadRequest) {
			t.Errorf("%s: err = %v, want ErrBadRequest", tc.name, err)
		}
	}
}

// TestSampleTestKeys pins the player's SampleTest reply to the sampler's
// formula, independently of the goldens. With base =
// Shared.Key("approx/<tag>/<mode>/<v>/<round>"), experiment i = 64w+b's
// bit is set when some local element e has bit 63−b set in every word
// base.Child(64w+t).Hash(e), t < j. The oracle evaluates that one bit at
// a time. Width 8 checks that the worker count does not matter.
func TestSampleTestKeys(t *testing.T) {
	cases := []struct {
		tag            string
		mode           countMode
		v, round, m, j uint64
	}{
		{"t", modeDegree, 2, 0, 16, 1},
		{"unrestricted/b3/d417", modeDegree, 0, 3, 300, 0},
		{"", modeDegree, 5, 7, 20, 1},
		{strings.Repeat("long/", 20), modeDegree, 3, 12, 64, 1},
		{"e9/417", modeEdges, 0, 1, 100, 2},
		{"x", modeEdges, 1 << 63, 2, 40, 2}, // v formats as a negative int
		{"none", modeDegree, 1, 0, 0, 1},
	}
	for _, workers := range []int{1, 8} {
		p := handlePlayer()
		p.Workers = workers
		for _, tc := range cases {
			req := request(opSampleTest, uv(uint64(tc.mode)), uv(tc.v), uv(tc.round), uv(tc.m), exponent(tc.j), tag(tc.tag))
			reply, err := Handle(p, comm.FromWriter(req))
			if err != nil {
				t.Fatalf("workers %d, tag %q: %v", workers, tc.tag, err)
			}
			if got := reply.Bits(); got != int(tc.m) {
				t.Fatalf("workers %d, tag %q: reply has %d bits, want %d", workers, tc.tag, got, tc.m)
			}
			elems := localElements(p, tc.mode, int(tc.v))
			base := p.Shared.Key(fmt.Sprintf("approx/%s/%d/%d/%d", tc.tag, tc.mode, int(tc.v), tc.round))
			r := reply.Reader()
			for i := uint64(0); i < tc.m; i++ {
				w, b := i/64, i%64
				want := false
				for _, e := range elems {
					all := true
					for t := uint64(0); t < tc.j; t++ {
						all = all && base.Child(64*w+t).Hash(e)>>(63-b)&1 == 1
					}
					want = want || all
				}
				got, err := r.ReadBool()
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Fatalf("workers %d, tag %q, experiment %d: bit %v, want %v", workers, tc.tag, i, got, want)
				}
			}
		}
	}
}

// TestSampleTestRate checks the sampler's statistics over 300 request
// keys: at guess 2^j, a player holding d elements sets an experiment's
// bit with probability 1 − (1 − 2^-j)^d, and for d = 1 two adjacent
// experiments are both set with probability 2^-2j, which catches a
// sampler that reuses one hash across a word. Each rate must lie inside
// the 99.9% Wilson interval of its observed fraction.
func TestSampleTestRate(t *testing.T) {
	const requests, m = 300, 200
	for _, d := range []int{1, 4, 16, 64} {
		star := make([]wire.Edge, d)
		for i := range star {
			star[i] = wire.Edge{U: 0, V: i + 1}
		}
		g := graph.FromEdges(d+1, star)
		p := &comm.Player{K: 1, N: g.N(), Edges: g.Edges(), View: g, Shared: xrand.New(5), Workers: 1}
		for _, j := range []int{0, 1, 3, 6, 10} {
			var set, pairs int
			for round := 0; round < requests; round++ {
				reply, err := Handle(p, SampleTestRequest(0, "rate", round, m, j))
				if err != nil {
					t.Fatal(err)
				}
				r := reply.Reader()
				prev := false
				for i := 0; i < m; i++ {
					bit, err := r.ReadBool()
					if err != nil {
						t.Fatal(err)
					}
					if bit {
						set++
					}
					if bit && prev {
						pairs++
					}
					prev = bit
				}
			}
			check := func(what string, hits, trials int, want float64) {
				if lo, hi := stats.WilsonZ(hits, trials, 3.29); want < lo || want > hi {
					t.Errorf("d=%d, j=%d: %s %d/%d, 99.9%% interval [%.5f, %.5f] misses %.5f", d, j, what, hits, trials, lo, hi, want)
				}
			}
			check("set bits", set, requests*m, 1-math.Pow(1-math.Ldexp(1, -j), float64(d)))
			if d == 1 {
				check("adjacent set pairs", pairs, requests*(m-1), math.Ldexp(1, -2*j))
			}
		}
	}
}

// FuzzHandle feeds arbitrary bit strings to the player-side dispatcher:
// it must never panic, and every error must wrap ErrBadRequest. The
// second argument trims up to 7 trailing bits, so inputs need not be
// whole bytes.
func FuzzHandle(f *testing.F) {
	seeds := validRequests()
	for _, tc := range hostileRequests {
		seeds = append(seeds, tc.w)
	}
	for _, w := range seeds {
		f.Add(w.Bytes(), uint8(8*len(w.Bytes())-w.BitLen()))
	}
	p := handlePlayer()
	f.Fuzz(func(t *testing.T, data []byte, trim uint8) {
		var w wire.Writer
		for i := 0; i < 8*len(data)-int(trim%8); i++ {
			w.WriteBit(uint(data[i/8]>>(7-i%8)) & 1)
		}
		if _, err := Handle(p, comm.FromWriter(&w)); err != nil && !errors.Is(err, ErrBadRequest) {
			t.Fatalf("error does not wrap ErrBadRequest: %v", err)
		}
	})
}
