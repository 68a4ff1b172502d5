// Package blocks implements the property-testing building blocks of paper
// §3.1 as subprotocols in the coordinator model.
//
// Each block has a coordinator-side function (EdgeQuery, RandIncidentEdge,
// ApproxDegree, …) and a shared player-side dispatcher (Handle) that
// composite protocols install via comm.ServeLoop. The blocks are designed
// for the duplication-tolerant setting: several players may hold the same
// edge, and the primitives stay unbiased (shared-permutation sampling) and
// accurate (cardinality estimation by sampling experiments) regardless.
//
// Opcodes are the first varint of every request; replies are op-specific.
package blocks

import (
	"errors"
	"fmt"
	"time"

	"tricomm/internal/comm"
	"tricomm/internal/wire"
)

// Opcodes for the player-side dispatcher. Start at 1 so that a zero
// opcode is always invalid. Retired opcodes stay as blanks so that every
// other opcode keeps its value, and with it every transcript.
const (
	opEdgeQuery uint64 = iota + 1
	opMinRankIncident
	_ // 3: retired (min-rank edge)
	opCountMSB
	opSampleTest
	opCountTopBits
	_ // 7: retired (collect induced)
	_ // 8: retired (collect cross)
	opCollectIncidentSample
	opCloseVees
	opCandidateMinRank
)

// Opcodes of the traversal and exact-counting blocks (bfs.go).
const (
	opNeighbors uint64 = 100 + iota
	opNeighborBitmap
)

// ErrBadRequest indicates a malformed request reaching a player.
var ErrBadRequest = errors.New("blocks: malformed request")

// Handle is the player-side dispatcher for every building block in this
// package. Install it with comm.ServeLoop(blocks.Handle) as the player
// function of any protocol composed from these blocks.
func Handle(p *comm.Player, req comm.Msg) (comm.Msg, error) {
	r := req.Reader()
	op, err := r.ReadUvarint()
	if err != nil {
		return comm.Msg{}, fmt.Errorf("%w: missing opcode: %v", ErrBadRequest, err)
	}
	switch op {
	case opEdgeQuery:
		return handleEdgeQuery(p, r)
	case opMinRankIncident:
		return handleMinRankIncident(p, r)
	case opCountMSB:
		return handleCountMSB(p, r)
	case opSampleTest:
		return handleSampleTest(p, r)
	case opCountTopBits:
		return handleCountTopBits(p, r)
	case opCollectIncidentSample:
		return handleCollectIncidentSample(p, r)
	case opCloseVees:
		return handleCloseVees(p, r)
	case opCandidateMinRank:
		return handleCandidateMinRank(p, r)
	case opNeighbors:
		return handleNeighbors(p, r)
	case opNeighborBitmap:
		return handleNeighborBitmap(p, r)
	default:
		return comm.Msg{}, fmt.Errorf("%w: unknown opcode %d", ErrBadRequest, op)
	}
}

// parRegion times an intra-phase parallel region for the observability
// meter: call it before the region and invoke the returned func after. At
// width 1 nothing fans out and nothing is recorded, so the serial path
// carries no clock reads. Timing feeds metrics only — never Stats — so
// it cannot perturb the deterministic artifact.
func parRegion(p *comm.Player) func() {
	if p.Workers <= 1 {
		return func() {}
	}
	t0 := time.Now()
	return func() { p.ObserveParallel(time.Since(t0)) }
}

// reqWriter starts a request message with the given opcode.
func reqWriter(op uint64) *wire.Writer {
	w := wire.NewWriter(64)
	w.WriteUvarint(op)
	return w
}

// countMode selects the element universe for cardinality estimation.
type countMode uint64

const (
	// modeDegree counts the distinct neighbors of a vertex across all
	// inputs (i.e. deg(v) in the union graph).
	modeDegree countMode = 1
	// modeEdges counts the distinct edges across all inputs (i.e. |E|).
	modeEdges countMode = 2
)

// localElements enumerates the player's elements of the given universe:
// neighbor ids of v for modeDegree, canonical edge keys for modeEdges.
// The returned values are universe-unique ids shared across players.
// readModeVertex admits no other mode.
func localElements(p *comm.Player, mode countMode, v int) []uint64 {
	if mode == modeDegree {
		nbrs := p.View.Neighbors(v)
		out := make([]uint64, len(nbrs))
		for i, u := range nbrs {
			out[i] = uint64(u)
		}
		return out
	}
	out := make([]uint64, 0, len(p.Edges))
	for _, e := range p.Edges {
		ec := e.Canon()
		out = append(out, uint64(ec.U)*uint64(p.N)+uint64(ec.V))
	}
	return out
}
