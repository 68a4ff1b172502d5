package comm

import (
	"errors"
	"fmt"
	"sync"

	"tricomm/internal/graph"
	"tricomm/internal/transport"
	"tricomm/internal/wire"
	"tricomm/internal/xrand"
)

// viewCache holds the players' local graphs. Each is built by
// graph.FromEdges the first time a party reads it and is then shared by
// every later run over the topology; a view nobody reads is never built
// (the one-round testers read none). A built *graph.Graph is immutable,
// so concurrent readers are safe.
type viewCache struct {
	once  []sync.Once
	views []*graph.Graph
}

// Topology is the reusable per-cluster state every model runs over: the
// vertex universe, the players' inputs, the shared randomness, and the
// cached per-player views. Build one per cluster and run as many protocols
// over it as you like; sessions created from it are independent.
type Topology struct {
	n      int
	inputs [][]wire.Edge
	shared *xrand.Shared
	cache  *viewCache
	dial   transport.Dialer // nil means the in-process channel transport
	intra  int              // requested intra-phase workers; ≤0 defers to env
}

// NewTopology validates the instance — n ≥ 0, at least one player, and
// non-nil shared randomness — and returns a topology with an empty view
// cache. inputs[j] is player j's private edge set; len(inputs) is k.
func NewTopology(n int, inputs [][]wire.Edge, shared *xrand.Shared) (*Topology, error) {
	if n < 0 {
		return nil, fmt.Errorf("comm: negative vertex count %d", n)
	}
	if len(inputs) == 0 {
		return nil, errors.New("comm: no players")
	}
	if shared == nil {
		return nil, errors.New("comm: nil shared randomness")
	}
	k := len(inputs)
	return &Topology{
		n:      n,
		inputs: inputs,
		shared: shared,
		cache:  &viewCache{once: make([]sync.Once, k), views: make([]*graph.Graph, k)},
	}, nil
}

// N reports the vertex universe size.
func (t *Topology) N() int { return t.n }

// K reports the number of players.
func (t *Topology) K() int { return len(t.inputs) }

// Shared returns the public randomness.
func (t *Topology) Shared() *xrand.Shared { return t.shared }

// Input returns player j's private edge set. The slice is shared; do not
// modify.
func (t *Topology) Input(j int) []wire.Edge { return t.inputs[j] }

// View returns player j's local graph (V, E_j), building it on the
// caller's goroutine the first time any caller asks for it, and returning
// that one graph to every later caller over this topology and the
// topologies derived from it.
func (t *Topology) View(j int) *graph.Graph {
	t.cache.once[j].Do(func() {
		t.cache.views[j] = graph.FromEdges(t.n, t.inputs[j])
	})
	return t.cache.views[j]
}

// WithShared returns a topology over the same inputs and the same view
// cache but different shared randomness — the cheap way to re-run a
// protocol with fresh randomness on an unchanged cluster (views are
// randomness-independent, so the cache stays valid and shared).
func (t *Topology) WithShared(shared *xrand.Shared) *Topology {
	return &Topology{n: t.n, inputs: t.inputs, shared: shared, cache: t.cache, dial: t.dial, intra: t.intra}
}

// Transport returns the dialer coordinator-model sessions over this
// topology open their links with. The default is the in-process channel
// transport.
func (t *Topology) Transport() transport.Dialer {
	if t.dial == nil {
		return transport.Chan{}
	}
	return t.dial
}

// WithTransport returns a topology over the same inputs, randomness, and
// view cache, whose sessions run over d instead — topologies are
// transport-agnostic, so the expensive per-player state is shared across
// transports. A nil d restores the default in-process transport.
func (t *Topology) WithTransport(d transport.Dialer) *Topology {
	return &Topology{n: t.n, inputs: t.inputs, shared: t.shared, cache: t.cache, dial: d, intra: t.intra}
}

// WithIntraWorkers returns a topology whose sessions fan per-player hot
// loops across up to n goroutines (resolved through parwork.Workers at
// session start, so n ≤ 0 defers to TRICOMM_INTRA_WORKERS). Results and
// bit accounting are identical at every width — the knob trades only
// wall clock.
func (t *Topology) WithIntraWorkers(n int) *Topology {
	return &Topology{n: t.n, inputs: t.inputs, shared: t.shared, cache: t.cache, dial: t.dial, intra: n}
}

// IntraWorkers reports the raw intra-phase worker request (≤0 means
// "resolve from the environment at session start").
func (t *Topology) IntraWorkers() int { return t.intra }
