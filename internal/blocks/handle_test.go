package blocks

import (
	"errors"
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
	return &comm.Player{ID: 0, K: 2, N: 8, Edges: g.Edges(), View: g, Shared: xrand.New(3)}
}

// handle feeds one request to Handle as request 0 of a testRun run.
func handle(p *comm.Player, w *wire.Writer) (comm.Msg, error) {
	return Handle(p, p.Shared.Key(testRun), 0, comm.FromWriter(w))
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

// tag writes a request tag as the retired layouts carried it: raw bytes to
// the end of the request.
func tag(s string) func(*wire.Writer) { return func(w *wire.Writer) { w.WriteBytes([]byte(s)) } }

// exponent writes a SampleTest guess exponent j as the gamma code of j+1.
func exponent(j uint64) func(*wire.Writer) { return func(w *wire.Writer) { w.WriteGamma(j + 1) } }

// count writes a list length or wave size as its gamma code.
func count(n uint64) func(*wire.Writer) { return func(w *wire.Writer) { w.WriteGamma(n) } }

var degreeMode, edgeMode = uv(uint64(modeDegree)), uv(uint64(modeEdges))

// validRequests holds one well-formed request per opcode, then the list
// and wave forms at more than one element.
func validRequests() []*wire.Writer {
	return []*wire.Writer{
		request(opEdgeQuery, vertex(0), vertex(1)),
		request(opMinRankIncident, vertex(2)),
		request(opCountMSB, degreeMode, count(1), uv(2)),
		request(opSampleTest, degreeMode, uv(16), count(1), uv(2), exponent(1)),
		request(opCountTopBits, degreeMode, uv(3), count(1), uv(2)),
		request(opCollectIncidentSample, vertex(2), float(0.5), uv(0)),
		request(opCloseVees, vertex(2), uv(3), vertex(0), vertex(1), vertex(3)),
		request(opCandidateMinRank, uv(1), count(1)),
		request(opNeighbors, vertex(2)),
		request(opNeighborBitmap, vertex(2)),
		request(opCountMSB, edgeMode, count(3), uv(0), uv(1<<40), uv(7)), // edge mode takes any v
		request(opSampleTest, degreeMode, uv(100), count(3), uv(2), exponent(1), uv(0), exponent(0), uv(7), exponent(3)),
		request(opCountTopBits, degreeMode, uv(2), count(2), uv(2), uv(6)),
		request(opCandidateMinRank, uv(2), count(25)),
	}
}

// hostileRequests holds request fields that would crash or hang a player
// if Handle passed them on.
var hostileRequests = []struct {
	name string
	w    *wire.Writer
}{
	{"count-msb vertex ≥ N", request(opCountMSB, degreeMode, count(1), uv(8))},
	{"sample-test vertex ≥ N", request(opSampleTest, degreeMode, uv(16), count(1), uv(1<<63), exponent(1))},
	{"count-top-bits vertex ≥ N", request(opCountTopBits, degreeMode, uv(3), count(1), uv(9))},
	{"sample-test later vertex ≥ N", request(opSampleTest, degreeMode, uv(16), count(2), uv(2), exponent(1), uv(8), exponent(1))},
	{"sample-test experiments above cap", request(opSampleTest, degreeMode, uv(maxExperiments+1), count(1), uv(2), exponent(1))},
	{"sample-test list × experiments above cap", request(opSampleTest, degreeMode, uv(maxExperiments/2+1), count(2), uv(2), exponent(1), uv(3), exponent(1))},
	{"sample-test list above cap", request(opSampleTest, degreeMode, uv(1), count(maxList+1))},
	{"count-msb list above cap", request(opCountMSB, degreeMode, count(maxList+1))},
	{"count-top-bits list above cap", request(opCountTopBits, degreeMode, uv(3), count(maxList+1))},
	{"candidate wave above cap", request(opCandidateMinRank, uv(1), count(maxWave+1))},
	{"sample-test exponent above 63", request(opSampleTest, degreeMode, uv(16), count(1), uv(2), exponent(64))},
	{"top bits ≥ 2^63", request(opCountTopBits, degreeMode, uv(1<<63), count(1), uv(2))},
	{"bucket index 2^40", request(opCandidateMinRank, uv(1<<40), count(1))},
	{"unknown count mode", request(opSampleTest, uv(3), uv(16), count(1), uv(2), exponent(1))},
	{"list shorter than its length", request(opCountMSB, degreeMode, count(3), uv(2), uv(3))},
	// The layouts that carried a tag (and SampleTest's round) before
	// requests were keyed by their index: the tag is now surplus bits.
	{"tagged min-rank-incident", request(opMinRankIncident, vertex(2), tag("t"))},
	{"tagged sample-test with round", request(opSampleTest, uv(uint64(modeDegree)), uv(2), uv(0), uv(16), exponent(1), tag("t"))},
	{"tagged collect-incident-sample", request(opCollectIncidentSample, vertex(2), float(0.5), uv(0), tag("t"))},
	{"tagged candidate-min-rank", request(opCandidateMinRank, uv(1), tag("t"))},
	// No coordinator sends the retired opcodes; each carries its old body.
	{"retired opcode 3", request(3, tag("t"))},
	{"retired opcode 7", request(7, float(0.5), uv(0), tag("t"))},
	{"retired opcode 8", request(8, float(0.5), float(0.5), uv(0), uv(1), tag("r"), tag("s"))},
}

func TestHandleRejectsHostileFields(t *testing.T) {
	p := handlePlayer()
	for _, w := range validRequests() {
		if _, err := handle(p, w); err != nil {
			t.Fatalf("valid request rejected: %v", err)
		}
	}
	for _, tc := range hostileRequests {
		if _, err := handle(p, tc.w); !errors.Is(err, ErrBadRequest) {
			t.Errorf("%s: err = %v, want ErrBadRequest", tc.name, err)
		}
	}
	// Every request ends at its last field: one more bit is malformed.
	for i, w := range validRequests() {
		w.WriteBit(1)
		if _, err := handle(p, w); !errors.Is(err, ErrBadRequest) {
			t.Errorf("valid request %d with a trailing bit: err = %v, want ErrBadRequest", i, err)
		}
	}
}

// TestSampleTestKeys pins the player's SampleTest reply to the sampler's
// formula, independently of the goldens. With base =
// Shared.Key(<run tag>).Child(r).Child(x) for request index r and list
// position x, experiment i = 64w+b of vertex x sets its bit when some
// local element e has bit 63−b set in every word base.Child(64w+t).Hash(e),
// t < j. The oracle evaluates that one bit at a time.
func TestSampleTestKeys(t *testing.T) {
	cases := []struct {
		tag    string
		mode   countMode
		r, m   uint64
		vs, js []uint64
	}{
		{"t", modeDegree, 0, 16, []uint64{2}, []uint64{1}},
		{"unrestricted", modeDegree, 3, 300, []uint64{0}, []uint64{0}},
		{"", modeDegree, 7, 20, []uint64{5}, []uint64{1}},
		{strings.Repeat("long/", 20), modeDegree, 12, 64, []uint64{3}, []uint64{1}},
		{"e9", modeEdges, 1, 100, []uint64{0}, []uint64{2}},
		{"x", modeEdges, 2, 40, []uint64{1 << 63}, []uint64{2}}, // edge mode takes any v
		{"none", modeDegree, 1, 0, []uint64{1}, []uint64{1}},
		{"unrestricted", modeDegree, 1 << 40, 130, []uint64{2}, []uint64{3}},
		// A wave's list, one vertex twice: each position draws its own key.
		{"unrestricted", modeDegree, 5, 130, []uint64{2, 0, 2, 3, 7}, []uint64{1, 0, 1, 2, 3}},
		{"e9", modeDegree, 9, 64, []uint64{1, 2, 3}, []uint64{2, 2, 2}},
	}
	p := handlePlayer()
	for _, tc := range cases {
		fields := []func(*wire.Writer){uv(uint64(tc.mode)), uv(tc.m), count(uint64(len(tc.vs)))}
		for x, v := range tc.vs {
			fields = append(fields, uv(v), exponent(tc.js[x]))
		}
		reply, err := Handle(p, p.Shared.Key(tc.tag), tc.r, comm.FromWriter(request(opSampleTest, fields...)))
		if err != nil {
			t.Fatalf("tag %q: %v", tc.tag, err)
		}
		if got, want := reply.Bits(), len(tc.vs)*int(tc.m); got != want {
			t.Fatalf("tag %q: reply has %d bits, want %d", tc.tag, got, want)
		}
		r := reply.Reader()
		for x, v := range tc.vs {
			elems := localElements(p, tc.mode, int(v))
			base := p.Shared.Key(tc.tag).Child(tc.r).Child(uint64(x))
			for i := uint64(0); i < tc.m; i++ {
				w, b := i/64, i%64
				want := false
				for _, e := range elems {
					all := true
					for t := uint64(0); t < tc.js[x]; t++ {
						all = all && base.Child(64*w+t).Hash(e)>>(63-b)&1 == 1
					}
					want = want || all
				}
				got, err := r.ReadBool()
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Fatalf("tag %q, vertex %d, experiment %d: bit %v, want %v", tc.tag, x, i, got, want)
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
		p := &comm.Player{K: 1, N: g.N(), Edges: g.Edges(), View: g, Shared: xrand.New(5)}
		run := p.Shared.Key("rate")
		for _, j := range []int{0, 1, 3, 6, 10} {
			var set, pairs int
			for round := 0; round < requests; round++ {
				reply, err := Handle(p, run, uint64(round), SampleTestRequest(m, []int{0}, []int{j}))
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
		if _, err := handle(p, &w); err != nil && !errors.Is(err, ErrBadRequest) {
			t.Fatalf("error does not wrap ErrBadRequest: %v", err)
		}
	})
}
