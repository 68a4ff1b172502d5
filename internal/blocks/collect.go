package blocks

import (
	"context"
	"fmt"
	"math"

	"tricomm/internal/bucket"
	"tricomm/internal/comm"
	"tricomm/internal/graph"
	"tricomm/internal/parwork"
	"tricomm/internal/wire"
	"tricomm/internal/xrand"
)

// CrossSampleEdgesN filters edges to those with one endpoint in the
// Bernoulli sample R = keyR(pR) and the other in R ∪ S, S = keyS(pS),
// the edge set of the low-degree simultaneous tester (Algorithm 8); the
// simultaneous protocols apply it player-side. It fans across up to
// workers goroutines. Both membership tests are pure point queries of
// shared keys and the filter preserves input order, so the output is
// bit-identical to the serial loop at any width.
func CrossSampleEdgesN(edges []wire.Edge, keyR, keyS xrand.Key, pR, pS float64, workers int) []wire.Edge {
	inR := func(v int) bool { return keyR.Bernoulli(uint64(v), pR) }
	inS := func(v int) bool { return keyS.Bernoulli(uint64(v), pS) }
	return parwork.Filter(workers, edges, func(_ int, e wire.Edge) bool {
		ru, rv := inR(e.U), inR(e.V)
		return (ru && rv) || (ru && inS(e.V)) || (rv && inS(e.U))
	})
}

// CollectIncidentSample gathers the sampled star around v: every player
// sends the neighbors u of v in its input with u in the shared
// Bernoulli(prob) sample under tag, truncated to capPerPlayer. This is
// SampleEdges (Algorithm 4): for a full vertex the sampled arms contain a
// triangle-vee with high probability (Lemma 3.9, the extended birthday
// paradox).
func CollectIncidentSample(ctx context.Context, c *comm.Coordinator, v int, prob float64, capPerPlayer int, tag string) ([]int, error) {
	w := reqWriter(opCollectIncidentSample)
	if err := wire.NewVertexCodec(c.N).Put(w, v); err != nil {
		return nil, err
	}
	w.WriteUint(floatBits(prob), 64)
	w.WriteUvarint(uint64(capAsU64(capPerPlayer)))
	w.WriteBytes([]byte(tag))
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

func handleCollectIncidentSample(p *comm.Player, r *wire.Reader) (comm.Msg, error) {
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
	tagBytes, err := r.ReadBytes(r.Remaining() / 8)
	if err != nil {
		return comm.Msg{}, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	key := p.Shared.Key("star/" + string(tagBytes))
	done := parRegion(p)
	kept := parwork.Filter(p.Workers, p.View.Neighbors(v), func(_ int, u int32) bool {
		return key.Bernoulli(uint64(u), prob)
	})
	done()
	var arms []int
	if len(kept) > 0 {
		arms = make([]int, len(kept))
		for i, u := range kept {
			arms[i] = int(u)
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
	// Same first-hit contract as the former nested HasEdge loop;
	// FirstArmPairN fans the outer scan across the player's workers with
	// the serial-first-hit reduction, so the witness pair is identical at
	// any width.
	done := parRegion(p)
	u1, u2, ok := p.View.FirstArmPairN(arms, p.Workers)
	done()
	if ok {
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

// SampleUniformCandidate implements SampleUniformFromB̃ᵢ (Algorithm 1):
// all parties derive a shared random order on V; each player sends its
// first vertex (under that order) among its local candidates B̃ᵢʲ for
// bucket i, and the coordinator returns the global first — a uniform
// sample from B̃ᵢ = ⋃_j B̃ᵢʲ, unbiased by how many players know each
// vertex. Returns ok=false if no player has candidates.
func SampleUniformCandidate(ctx context.Context, c *comm.Coordinator, bucketIdx int, tag string) (int, bool, error) {
	w := reqWriter(opCandidateMinRank)
	w.WriteUvarint(uint64(bucketIdx))
	w.WriteBytes([]byte(tag))
	replies, err := c.AskAll(ctx, comm.FromWriter(w))
	if err != nil {
		return 0, false, err
	}
	key := c.Shared.Key("cand/" + tag)
	vc := wire.NewVertexCodec(c.N)
	best, found := -1, false
	for _, m := range replies {
		r := m.Reader()
		has, err := r.ReadBool()
		if err != nil {
			return 0, false, err
		}
		if !has {
			continue
		}
		v, err := vc.Get(r)
		if err != nil {
			return 0, false, err
		}
		if !found || key.Before(uint64(v), uint64(best)) {
			best, found = v, true
		}
	}
	return best, found, nil
}

func handleCandidateMinRank(p *comm.Player, r *wire.Reader) (comm.Msg, error) {
	bucketIdx, err := r.ReadUvarint()
	if err != nil {
		return comm.Msg{}, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	if nb := bucket.NumBuckets(p.N); bucketIdx > uint64(nb) {
		return comm.Msg{}, fmt.Errorf("%w: bucket %d above %d", ErrBadRequest, bucketIdx, nb)
	}
	tagBytes, err := r.ReadBytes(r.Remaining() / 8)
	if err != nil {
		return comm.Msg{}, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	key := p.Shared.Key("cand/" + string(tagBytes))
	// Fused candidate-scan + min-rank: no candidate slice, and the vertex
	// scan fans across the player's workers (chunk-local minima folded in
	// chunk order under the Before total order — same winner at any width).
	done := parRegion(p)
	best, found := bucket.MinRankCandidate(p.View, int(bucketIdx), p.K, key, p.Workers)
	done()
	var w wire.Writer
	w.WriteBool(found)
	if found {
		if err := wire.NewVertexCodec(p.N).Put(&w, best); err != nil {
			return comm.Msg{}, err
		}
	}
	return comm.FromWriter(&w), nil
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
