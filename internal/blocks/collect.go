package blocks

import (
	"context"
	"fmt"
	"math"
	"sync"

	"tricomm/internal/bucket"
	"tricomm/internal/comm"
	"tricomm/internal/graph"
	"tricomm/internal/wire"
	"tricomm/internal/xrand"
)

// TouchingEdges returns, in input order, the edges with an endpoint in
// r: the first of two steps that draw the low-degree simultaneous
// tester's edge set (Algorithm 8), CrossEdges being the second. Every edge
// of that set touches R, so a player whose instances share R draws this
// list once.
func TouchingEdges(edges []wire.Edge, r xrand.Sample) []wire.Edge {
	var out []wire.Edge
	for _, e := range edges {
		if r.Has(uint64(e.U)) || r.Has(uint64(e.V)) {
			out = append(out, e)
		}
	}
	return out
}

// CrossEdges returns, in input order, the edges of touching with one
// endpoint in r and the other in r ∪ s:
// (u∈R ∧ v∈R) ∨ (u∈R ∧ v∈S) ∨ (v∈R ∧ u∈S). On TouchingEdges's list it
// keeps the edges, in the order, that one filter over all edges keeps.
func CrossEdges(touching []wire.Edge, r, s xrand.Sample) []wire.Edge {
	var out []wire.Edge
	for _, e := range touching {
		ru, rv := r.Has(uint64(e.U)), r.Has(uint64(e.V))
		if (ru && rv) || (ru && s.Has(uint64(e.V))) || (rv && s.Has(uint64(e.U))) {
			out = append(out, e)
		}
	}
	return out
}

// InducedEdges returns, in input order, the edges with both endpoints in
// s: the edge set of the high-degree simultaneous tester (Algorithm 7).
func InducedEdges(edges []wire.Edge, s xrand.Sample) []wire.Edge {
	var out []wire.Edge
	for _, e := range edges {
		if s.Has(uint64(e.U)) && s.Has(uint64(e.V)) {
			out = append(out, e)
		}
	}
	return out
}

// CollectIncidentSample gathers the sampled star around v: every player
// sends the neighbors u of v in its input with u in the shared
// Bernoulli(prob) sample under the request's key, truncated to
// capPerPlayer. This is SampleEdges (Algorithm 4): for a full vertex the
// sampled arms contain a triangle-vee with high probability (Lemma 3.9,
// the extended birthday paradox).
func CollectIncidentSample(ctx context.Context, c *comm.Coordinator, v int, prob float64, capPerPlayer int) ([]int, error) {
	w := reqWriter(opCollectIncidentSample)
	if err := wire.NewVertexCodec(c.N).Put(w, v); err != nil {
		return nil, err
	}
	w.WriteUint(floatBits(prob), 64)
	w.WriteUvarint(uint64(capAsU64(capPerPlayer)))
	replies, err := c.AskAll(ctx, comm.FromWriter(w))
	if err != nil {
		return nil, err
	}
	vc := wire.NewVertexCodec(c.N)
	seen := map[int]bool{}
	var arms []int
	for _, m := range replies {
		vs, err := vc.GetVertexList(m.Reader())
		if err != nil {
			return nil, err
		}
		for _, u := range vs {
			if !seen[u] {
				seen[u] = true
				arms = append(arms, u)
			}
		}
	}
	return arms, nil
}

func handleCollectIncidentSample(p *comm.Player, key xrand.Key, r *wire.Reader) (comm.Msg, error) {
	vc := wire.NewVertexCodec(p.N)
	v, err := vc.Get(r)
	if err != nil {
		return comm.Msg{}, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	prob, err := readFloat(r)
	if err != nil {
		return comm.Msg{}, err
	}
	cap64, err := r.ReadUvarint()
	if err != nil {
		return comm.Msg{}, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	var arms []int
	for _, u := range p.View.Neighbors(v) {
		if key.Bernoulli(uint64(u), prob) {
			arms = append(arms, int(u))
		}
	}
	if cap64 > 0 && uint64(len(arms)) > cap64 {
		arms = arms[:cap64]
	}
	var w wire.Writer
	if err := vc.PutVertexList(&w, arms); err != nil {
		return comm.Msg{}, err
	}
	return comm.FromWriter(&w), nil
}

// CloseStar broadcasts the sampled arms around v and asks every player
// whether its input closes a triangle-vee: an edge {u1, u2} between two
// arms yields the triangle (v, u1, u2). This is the interactive step that
// distinguishes the coordinator model from the query model (§3.3): a vee
// in hand is a triangle found.
func CloseStar(ctx context.Context, c *comm.Coordinator, v int, arms []int) (graph.Triangle, bool, error) {
	w := reqWriter(opCloseVees)
	vc := wire.NewVertexCodec(c.N)
	if err := vc.Put(w, v); err != nil {
		return graph.Triangle{}, false, err
	}
	if err := vc.PutVertexList(w, arms); err != nil {
		return graph.Triangle{}, false, err
	}
	replies, err := c.AskAll(ctx, comm.FromWriter(w))
	if err != nil {
		return graph.Triangle{}, false, err
	}
	for _, m := range replies {
		r := m.Reader()
		has, err := r.ReadBool()
		if err != nil {
			return graph.Triangle{}, false, err
		}
		if !has {
			continue
		}
		u1, err := vc.Get(r)
		if err != nil {
			return graph.Triangle{}, false, err
		}
		u2, err := vc.Get(r)
		if err != nil {
			return graph.Triangle{}, false, err
		}
		return graph.Triangle{A: v, B: u1, C: u2}.Canon(), true, nil
	}
	return graph.Triangle{}, false, nil
}

func handleCloseVees(p *comm.Player, r *wire.Reader) (comm.Msg, error) {
	vc := wire.NewVertexCodec(p.N)
	// The star center is decoded for protocol shape but only the arms
	// matter for closing.
	if _, err := vc.Get(r); err != nil {
		return comm.Msg{}, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	arms, err := vc.GetVertexList(r)
	if err != nil {
		return comm.Msg{}, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	var w wire.Writer
	if u1, u2, ok := p.View.FirstArmPair(arms); ok {
		w.WriteBool(true)
		if err := vc.Put(&w, u1); err != nil {
			return comm.Msg{}, err
		}
		if err := vc.Put(&w, u2); err != nil {
			return comm.Msg{}, err
		}
		return comm.FromWriter(&w), nil
	}
	w.WriteBool(false)
	return comm.FromWriter(&w), nil
}

// SampleUniformCandidates draws w samples of SampleUniformFromB̃ᵢ
// (Algorithm 1) in one round: all parties derive w shared random orders
// on V; each player lists its local candidates B̃ᵢʲ for bucket i once and
// sends its first vertex under every order, and the coordinator keeps
// each order's global first — w independent uniform samples from
// B̃ᵢ = ⋃_j B̃ᵢʲ, unbiased by how many players know each vertex. Sample t
// of the request with index r is ordered by run.Child(r).Child(t), where
// run is the key of the players' run tag (see Serve). Returns no samples
// if no player has candidates. A wave longer than one request admits is
// split.
func SampleUniformCandidates(ctx context.Context, c *comm.Coordinator, run xrand.Key, bucketIdx, w int) ([]int, error) {
	vc := wire.NewVertexCodec(c.N)
	var picks []int
	for len(picks) < w {
		wave := make([]int, min(w-len(picks), maxWave))
		key := run.Child(c.Asks())
		replies, err := c.AskAll(ctx, CandidateWaveRequest(bucketIdx, len(wave)))
		if err != nil {
			return nil, err
		}
		found := false
		for _, m := range replies {
			r := m.Reader()
			has, err := r.ReadBool()
			if err != nil {
				return nil, err
			}
			if !has {
				continue
			}
			for t := range wave {
				v, err := vc.Get(r)
				if err != nil {
					return nil, err
				}
				if !found || key.Child(uint64(t)).Before(uint64(v), uint64(wave[t])) {
					wave[t] = v
				}
			}
			found = true
		}
		if !found {
			return nil, nil
		}
		picks = append(picks, wave...)
	}
	return picks, nil
}

// CandidateWaveRequest is the request SampleUniformCandidates sends every
// player for a wave of w samples from bucket bucketIdx. Benchmarks hand it
// straight to Handle.
func CandidateWaveRequest(bucketIdx, w int) comm.Msg {
	req := reqWriter(opCandidateMinRank)
	req.WriteUvarint(uint64(bucketIdx))
	req.WriteGamma(uint64(w))
	return comm.FromWriter(req)
}

// memberLists recycles the member lists of candidate waves. A list lives
// for one request; allocating it afresh was half the bytes an interactive
// trial allocated.
var memberLists = sync.Pool{New: func() any { return new([]int) }}

func handleCandidateMinRank(p *comm.Player, key xrand.Key, r *wire.Reader) (comm.Msg, error) {
	bucketIdx, err := r.ReadUvarint()
	if err != nil {
		return comm.Msg{}, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	if nb := bucket.NumBuckets(p.N); bucketIdx > uint64(nb) {
		return comm.Msg{}, fmt.Errorf("%w: bucket %d above %d", ErrBadRequest, bucketIdx, nb)
	}
	size, err := r.ReadGamma()
	if err != nil {
		return comm.Msg{}, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	if size > maxWave {
		return comm.Msg{}, fmt.Errorf("%w: wave of %d samples exceeds %d", ErrBadRequest, size, maxWave)
	}
	// One has-members bit, then each sample's first member under its order.
	list := memberLists.Get().(*[]int)
	defer memberLists.Put(list)
	*list = bucket.AppendMembers((*list)[:0], p.View, int(bucketIdx), p.K)
	members := *list
	vc := wire.NewVertexCodec(p.N)
	w := wire.NewWriter(1 + int(size)*vc.Width())
	w.WriteBool(len(members) > 0)
	if len(members) > 0 {
		for t := uint64(0); t < size; t++ {
			if err := vc.Put(w, bucket.First(members, key.Child(t))); err != nil {
				return comm.Msg{}, err
			}
		}
	}
	return comm.FromWriter(w), nil
}

// --- small shared helpers ---

func floatBits(f float64) uint64 { return math.Float64bits(f) }

func readFloat(r *wire.Reader) (float64, error) {
	b, err := r.ReadUint(64)
	if err != nil {
		return 0, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	return math.Float64frombits(b), nil
}

func capAsU64(c int) uint64 {
	if c <= 0 {
		return 0
	}
	return uint64(c)
}
