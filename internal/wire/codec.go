package wire

import (
	"errors"
	"fmt"
	"sort"
)

// ErrVertexRange indicates a vertex id outside the codec's universe.
var ErrVertexRange = errors.New("wire: vertex id out of range")

// VertexCodec encodes vertex ids of an n-vertex graph using the
// information-theoretically minimal fixed width of ceil(log₂ n) bits.
type VertexCodec struct {
	n     int
	width int
}

// NewVertexCodec returns a codec for vertex ids in [0, n).
func NewVertexCodec(n int) VertexCodec {
	return VertexCodec{n: n, width: BitsFor(n)}
}

// Width reports the number of bits used per vertex id.
func (c VertexCodec) Width() int { return c.width }

// Put appends vertex id v.
func (c VertexCodec) Put(w *Writer, v int) error {
	if v < 0 || v >= c.n {
		return fmt.Errorf("%w: %d not in [0,%d)", ErrVertexRange, v, c.n)
	}
	w.WriteUint(uint64(v), c.width)
	return nil
}

// Get consumes one vertex id.
func (c VertexCodec) Get(r *Reader) (int, error) {
	u, err := r.ReadUint(c.width)
	if err != nil {
		return 0, err
	}
	v := int(u)
	if v >= c.n {
		return 0, fmt.Errorf("%w: decoded %d not in [0,%d)", ErrVertexRange, v, c.n)
	}
	return v, nil
}

// Edge is an undirected edge between two vertex ids. The canonical form has
// U ≤ V; Canon returns it.
type Edge struct {
	U, V int
}

// Canon returns e with endpoints ordered so that U ≤ V.
func (e Edge) Canon() Edge {
	if e.U > e.V {
		return Edge{U: e.V, V: e.U}
	}
	return e
}

// Other returns the endpoint of e that is not v. It panics if v is not an
// endpoint of e.
func (e Edge) Other(v int) int {
	switch v {
	case e.U:
		return e.V
	case e.V:
		return e.U
	default:
		panic(fmt.Sprintf("wire: vertex %d not an endpoint of %v", v, e))
	}
}

// String implements fmt.Stringer.
func (e Edge) String() string { return fmt.Sprintf("{%d,%d}", e.U, e.V) }

// EdgeCodec encodes undirected edges as two fixed-width vertex ids
// (2·ceil(log₂ n) bits per edge).
type EdgeCodec struct {
	vc VertexCodec
}

// NewEdgeCodec returns an edge codec for an n-vertex graph.
func NewEdgeCodec(n int) EdgeCodec { return EdgeCodec{vc: NewVertexCodec(n)} }

// Width reports the number of bits per encoded edge.
func (c EdgeCodec) Width() int { return 2 * c.vc.Width() }

// Put appends edge e in canonical form.
func (c EdgeCodec) Put(w *Writer, e Edge) error {
	e = e.Canon()
	if err := c.vc.Put(w, e.U); err != nil {
		return err
	}
	return c.vc.Put(w, e.V)
}

// Get consumes one edge.
func (c EdgeCodec) Get(r *Reader) (Edge, error) {
	u, err := c.vc.Get(r)
	if err != nil {
		return Edge{}, err
	}
	v, err := c.vc.Get(r)
	if err != nil {
		return Edge{}, err
	}
	return Edge{U: u, V: v}.Canon(), nil
}

// PutEdgeList appends a length-prefixed edge list: a varint count followed
// by the edges in canonical sorted order (sorting makes the encoding a
// deterministic function of the set).
func (c EdgeCodec) PutEdgeList(w *Writer, edges []Edge) error {
	sorted := make([]Edge, len(edges))
	for i, e := range edges {
		sorted[i] = e.Canon()
	}
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].U != sorted[j].U {
			return sorted[i].U < sorted[j].U
		}
		return sorted[i].V < sorted[j].V
	})
	w.WriteUvarint(uint64(len(sorted)))
	for _, e := range sorted {
		if err := c.Put(w, e); err != nil {
			return err
		}
	}
	return nil
}

// GetEdgeList consumes a length-prefixed edge list.
func (c EdgeCodec) GetEdgeList(r *Reader) ([]Edge, error) {
	cnt, err := r.ReadUvarint()
	if err != nil {
		return nil, err
	}
	if cnt > uint64(r.Remaining()/max(1, c.Width())) {
		return nil, fmt.Errorf("%w: edge list length %d exceeds message", ErrShortMessage, cnt)
	}
	edges := make([]Edge, 0, cnt)
	for i := uint64(0); i < cnt; i++ {
		e, err := c.Get(r)
		if err != nil {
			return nil, err
		}
		edges = append(edges, e)
	}
	return edges, nil
}

// PutVertexList appends a length-prefixed vertex list in sorted order.
func (c VertexCodec) PutVertexList(w *Writer, vs []int) error {
	sorted := append([]int(nil), vs...)
	sort.Ints(sorted)
	w.WriteUvarint(uint64(len(sorted)))
	for _, v := range sorted {
		if err := c.Put(w, v); err != nil {
			return err
		}
	}
	return nil
}

// GetVertexList consumes a length-prefixed vertex list.
func (c VertexCodec) GetVertexList(r *Reader) ([]int, error) {
	cnt, err := r.ReadUvarint()
	if err != nil {
		return nil, err
	}
	if cnt > uint64(r.Remaining()/max(1, c.width)) {
		return nil, fmt.Errorf("%w: vertex list length %d exceeds message", ErrShortMessage, cnt)
	}
	vs := make([]int, 0, cnt)
	for i := uint64(0); i < cnt; i++ {
		v, err := c.Get(r)
		if err != nil {
			return nil, err
		}
		vs = append(vs, v)
	}
	return vs, nil
}
