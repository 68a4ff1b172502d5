// Package blocks implements the property-testing building blocks of paper
// §3.1 as subprotocols in the coordinator model.
//
// Each block has a coordinator-side function (EdgeQuery, RandIncidentEdge,
// ApproxDegree, …) and a shared player-side dispatcher (Handle) that
// composite protocols install via Serve. The blocks are designed for the
// duplication-tolerant setting: several players may hold the same edge,
// and the primitives stay unbiased (shared-permutation sampling) and
// accurate (cardinality estimation by sampling experiments) regardless.
//
// Shared randomness costs no bits. A run has a public tag, and request r
// of its session (the r-th AskAll, counted from 0) draws from
// Shared.Key(tag).Child(r). The coordinator counts the requests it sends
// (comm.Coordinator.Asks) and each player the requests it serves
// (comm.ServeLoop), so every party derives the same key without a tag on
// the wire.
//
// Rounds, not bits, set a session's latency, so the candidate blocks work
// on lists. One CandidateMinRank request draws a whole wave of samples:
// sample t of request r is ordered by Shared.Key(tag).Child(r).Child(t),
// and each player lists its bucket members once and answers every sample
// from that list. One CountMSB, SampleTest or CountTopBits request covers
// a whole vertex list: listed vertex x of request r samples under
// Shared.Key(tag).Child(r).Child(x), and SampleTest sends its experiment
// count m once per request. A list length is gamma-coded, so a
// one-element request costs one bit more than a bare vertex. Players
// bound every declared count (wave size, list length, list length × m)
// before they allocate for it.
//
// Opcodes are the first varint of every request; replies are op-specific.
// A request ends at its last field.
package blocks

import (
	"context"
	"errors"
	"fmt"

	"tricomm/internal/comm"
	"tricomm/internal/wire"
	"tricomm/internal/xrand"
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

// Bounds on the counts a request declares, checked before a player
// allocates for them. A legitimate candidate wave stays below
// keep ≈ 4·ln n samples, and its degree estimates below keep vertices at
// m ≈ 328 experiments; coordinators split anything longer.
const (
	// maxWave caps the samples of one candidate wave.
	maxWave = 1 << 12
	// maxList caps the vertices of one count request.
	maxList = 1 << 12
	// maxExperiments caps a SampleTest request's list length × m, the bits
	// of each player's reply.
	maxExperiments = 1 << 20
)

// Serve returns the player function of every protocol composed from these
// blocks: comm.ServeLoop over Handle under the public run tag. The tag is
// never sent; each player derives run = Shared.Key(tag) once per session,
// and the coordinator derives the same key from the same tag.
func Serve(tag string) comm.PlayerFunc {
	return func(ctx context.Context, p *comm.Player) error {
		run := p.Shared.Key(tag)
		return comm.ServeLoop(func(p *comm.Player, r uint64, req comm.Msg) (comm.Msg, error) {
			return Handle(p, run, r, req)
		})(ctx, p)
	}
}

// Handle is the player-side dispatcher for every building block in this
// package. Request r of a session (its ServeLoop index, equal to the
// coordinator's Asks() when it sent the request) draws its public
// randomness from run.Child(r), so no request carries a tag. A request
// with bits left after its last field is malformed.
func Handle(p *comm.Player, run xrand.Key, r uint64, req comm.Msg) (comm.Msg, error) {
	rd := req.Reader()
	op, err := rd.ReadUvarint()
	if err != nil {
		return comm.Msg{}, fmt.Errorf("%w: missing opcode: %v", ErrBadRequest, err)
	}
	key := run.Child(r)
	var reply comm.Msg
	switch op {
	case opEdgeQuery:
		reply, err = handleEdgeQuery(p, rd)
	case opMinRankIncident:
		reply, err = handleMinRankIncident(p, key, rd)
	case opCountMSB:
		reply, err = handleCountMSB(p, rd)
	case opSampleTest:
		reply, err = handleSampleTest(p, key, rd)
	case opCountTopBits:
		reply, err = handleCountTopBits(p, rd)
	case opCollectIncidentSample:
		reply, err = handleCollectIncidentSample(p, key, rd)
	case opCloseVees:
		reply, err = handleCloseVees(p, rd)
	case opCandidateMinRank:
		reply, err = handleCandidateMinRank(p, key, rd)
	case opNeighbors:
		reply, err = handleNeighbors(p, rd)
	case opNeighborBitmap:
		reply, err = handleNeighborBitmap(p, rd)
	default:
		return comm.Msg{}, fmt.Errorf("%w: unknown opcode %d", ErrBadRequest, op)
	}
	if err == nil && rd.Remaining() > 0 {
		return comm.Msg{}, fmt.Errorf("%w: %d bits after opcode %d's last field", ErrBadRequest, rd.Remaining(), op)
	}
	return reply, err
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
// readMode admits no other mode.
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
