package blocks

import (
	"context"
	"fmt"

	"tricomm/internal/comm"
	"tricomm/internal/wire"
)

// EdgeQuery implements the dense-model primitive "does edge e exist?":
// the coordinator broadcasts e and every player answers one bit; the
// result is the OR. Cost Θ(k·log n) down + k bits up.
func EdgeQuery(ctx context.Context, c *comm.Coordinator, e wire.Edge) (bool, error) {
	w := reqWriter(opEdgeQuery)
	ec := wire.NewEdgeCodec(c.N)
	if err := ec.Put(w, e); err != nil {
		return false, err
	}
	replies, err := c.AskAll(ctx, comm.FromWriter(w))
	if err != nil {
		return false, err
	}
	for _, m := range replies {
		has, err := m.Reader().ReadBool()
		if err != nil {
			return false, err
		}
		if has {
			return true, nil
		}
	}
	return false, nil
}

func handleEdgeQuery(p *comm.Player, r *wire.Reader) (comm.Msg, error) {
	e, err := wire.NewEdgeCodec(p.N).Get(r)
	if err != nil {
		return comm.Msg{}, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	var w wire.Writer
	w.WriteBool(p.View.HasEdge(e.U, e.V))
	return comm.FromWriter(&w), nil
}

// edgeRankKey derives the shared random order on the potential edges
// incident to v for the given tag. The rank of neighbor u is a pure
// function of (shared randomness, tag, v, u), so all parties agree on the
// permutation without communication — this is the paper's trick for
// unbiased incident-edge sampling under duplication.
func edgeRankElement(v, u int) uint64 { return uint64(v)<<32 | uint64(u) }

// RandIncidentEdge implements the sparse-model primitive "uniform random
// edge incident to v": a shared random permutation orders the n-1
// potential incident edges; each player reports its first present edge
// under that order and the coordinator takes the global first. Because the
// permutation is independent of multiplicity, duplicated edges are not
// favored. Returns ok=false if no player holds an edge at v.
// Cost Θ(k·log n).
func RandIncidentEdge(ctx context.Context, c *comm.Coordinator, v int, tag string) (wire.Edge, bool, error) {
	w := reqWriter(opMinRankIncident)
	vc := wire.NewVertexCodec(c.N)
	if err := vc.Put(w, v); err != nil {
		return wire.Edge{}, false, err
	}
	w.WriteBytes([]byte(tag))
	replies, err := c.AskAll(ctx, comm.FromWriter(w))
	if err != nil {
		return wire.Edge{}, false, err
	}
	key := c.Shared.Key("incident/" + tag)
	best, found := -1, false
	for _, m := range replies {
		r := m.Reader()
		has, err := r.ReadBool()
		if err != nil {
			return wire.Edge{}, false, err
		}
		if !has {
			continue
		}
		u, err := vc.Get(r)
		if err != nil {
			return wire.Edge{}, false, err
		}
		if !found || key.Before(edgeRankElement(v, u), edgeRankElement(v, best)) {
			best, found = u, true
		}
	}
	if !found {
		return wire.Edge{}, false, nil
	}
	return wire.Edge{U: v, V: best}.Canon(), true, nil
}

func handleMinRankIncident(p *comm.Player, r *wire.Reader) (comm.Msg, error) {
	v, err := wire.NewVertexCodec(p.N).Get(r)
	if err != nil {
		return comm.Msg{}, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	tagBytes, err := r.ReadBytes(r.Remaining() / 8)
	if err != nil {
		return comm.Msg{}, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	key := p.Shared.Key("incident/" + string(tagBytes))
	var best int
	found := false
	for _, u := range p.View.Neighbors(v) {
		if !found || key.Before(edgeRankElement(v, int(u)), edgeRankElement(v, best)) {
			best, found = int(u), true
		}
	}
	var w wire.Writer
	w.WriteBool(found)
	if found {
		if err := wire.NewVertexCodec(p.N).Put(&w, best); err != nil {
			return comm.Msg{}, err
		}
	}
	return comm.FromWriter(&w), nil
}

// RandomWalk performs a steps-long random walk from start, choosing a
// uniform random incident edge at every step via RandIncidentEdge. It
// returns the visited vertices (including start). The walk stops early at
// an isolated vertex. Cost Θ(k·steps·log n).
func RandomWalk(ctx context.Context, c *comm.Coordinator, start, steps int, tag string) ([]int, error) {
	path := []int{start}
	cur := start
	for s := 0; s < steps; s++ {
		e, ok, err := RandIncidentEdge(ctx, c, cur, fmt.Sprintf("%s/step%d", tag, s))
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		cur = e.Other(cur)
		path = append(path, cur)
	}
	return path, nil
}
