package blocks

import (
	"context"
	"fmt"

	"tricomm/internal/comm"
	"tricomm/internal/wire"
)

// Neighbors collects the exact neighbor set of v across all players —
// the primitive behind the §3.1 BFS implementation ("have all players
// post all the neighbors of the currently examined vertex"). Cost
// Θ(k·log n + Σ_j d_j(v)·log n).
func Neighbors(ctx context.Context, c *comm.Coordinator, v int) ([]int, error) {
	w := reqWriter(opNeighbors)
	vc := wire.NewVertexCodec(c.N)
	if err := vc.Put(w, v); err != nil {
		return nil, err
	}
	replies, err := c.AskAll(ctx, comm.FromWriter(w))
	if err != nil {
		return nil, err
	}
	seen := map[int]bool{}
	var out []int
	for _, m := range replies {
		vs, err := vc.GetVertexList(m.Reader())
		if err != nil {
			return nil, err
		}
		for _, u := range vs {
			if !seen[u] {
				seen[u] = true
				out = append(out, u)
			}
		}
	}
	return out, nil
}

func handleNeighbors(p *comm.Player, r *wire.Reader) (comm.Msg, error) {
	vc := wire.NewVertexCodec(p.N)
	v, err := vc.Get(r)
	if err != nil {
		return comm.Msg{}, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	nbrs := p.View.Neighbors(v)
	list := make([]int, len(nbrs))
	for i, u := range nbrs {
		list[i] = int(u)
	}
	var w wire.Writer
	if err := vc.PutVertexList(&w, list); err != nil {
		return comm.Msg{}, err
	}
	return comm.FromWriter(&w), nil
}

// BFS runs a breadth-first search over the union graph from start,
// visiting at most maxVisit vertices (≤ 0 means no limit). It returns the
// visited vertices in BFS order together with their depths. Per §3.1 the
// cost is O(visited · k · log n + edges · log n) — each vertex's neighbor
// list crosses the wire once per holder.
func BFS(ctx context.Context, c *comm.Coordinator, start, maxVisit int) (order []int, depth map[int]int, err error) {
	depth = map[int]int{start: 0}
	order = []int{start}
	queue := []int{start}
	for len(queue) > 0 {
		if maxVisit > 0 && len(order) >= maxVisit {
			break
		}
		v := queue[0]
		queue = queue[1:]
		nbrs, nerr := Neighbors(ctx, c, v)
		if nerr != nil {
			return nil, nil, nerr
		}
		for _, u := range nbrs {
			if _, ok := depth[u]; ok {
				continue
			}
			depth[u] = depth[v] + 1
			order = append(order, u)
			queue = append(queue, u)
			if maxVisit > 0 && len(order) >= maxVisit {
				break
			}
		}
	}
	return order, depth, nil
}

// ExactDegree computes deg(v) in the union graph exactly, tolerating
// duplication, by having every player send its full incidence bitmap for
// v. This is the Ω(k·n)-bit protocol the paper's §3.1 remark alludes to:
// exact counting under duplication is as hard as set disjointness, so the
// bitmap exchange is essentially optimal — the point of comparison for
// ApproxDegree's exponentially cheaper estimate.
func ExactDegree(ctx context.Context, c *comm.Coordinator, v int) (int, error) {
	w := reqWriter(opNeighborBitmap)
	vc := wire.NewVertexCodec(c.N)
	if err := vc.Put(w, v); err != nil {
		return 0, err
	}
	replies, err := c.AskAll(ctx, comm.FromWriter(w))
	if err != nil {
		return 0, err
	}
	union := make([]bool, c.N)
	for _, m := range replies {
		r := m.Reader()
		for u := 0; u < c.N; u++ {
			bit, err := r.ReadBit()
			if err != nil {
				return 0, err
			}
			if bit == 1 {
				union[u] = true
			}
		}
	}
	deg := 0
	for _, b := range union {
		if b {
			deg++
		}
	}
	return deg, nil
}

func handleNeighborBitmap(p *comm.Player, r *wire.Reader) (comm.Msg, error) {
	vc := wire.NewVertexCodec(p.N)
	v, err := vc.Get(r)
	if err != nil {
		return comm.Msg{}, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	bitmap := make([]bool, p.N)
	for _, u := range p.View.Neighbors(v) {
		bitmap[u] = true
	}
	var w wire.Writer
	for _, b := range bitmap {
		w.WriteBool(b)
	}
	return comm.FromWriter(&w), nil
}
