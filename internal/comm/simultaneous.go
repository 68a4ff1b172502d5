package comm

import (
	"context"
	"fmt"
	"sync"
	"time"

	"tricomm/internal/graph"
	"tricomm/internal/parwork"
	"tricomm/internal/xrand"
)

// SimPlayer is a player's view in the simultaneous model: input and shared
// randomness, but no channel — the player speaks exactly once.
type SimPlayer struct {
	// ID is the player index in [0, K).
	ID int
	// K is the number of players.
	K int
	// N is the vertex universe size.
	N int
	// Edges is the player's private input E_j.
	Edges []graph.Edge
	// Shared is the public randomness.
	Shared *xrand.Shared
	// Workers is the resolved intra-phase worker count: hot local loops
	// may fan across up to this many goroutines (via parwork). Always ≥ 1;
	// results and bit accounting are identical at every value.
	Workers int

	top   *Topology
	meter *Meter
}

// View returns the player's local graph (V, E_j) from the topology's view
// cache, building it on the calling goroutine at the first read. A player
// that never calls View costs no graph build.
func (p *SimPlayer) View() *graph.Graph { return p.top.View(p.ID) }

// ObserveParallel attributes d of wall clock to the session's intra-phase
// parallel regions (observability only — never part of Stats). Safe on a
// SimPlayer with no attached meter (e.g. BoardPlayersOn views).
func (p *SimPlayer) ObserveParallel(d time.Duration) { p.meter.ObserveParallel(d) }

// SimPlayerFunc computes a player's single message from its input.
type SimPlayerFunc func(p *SimPlayer) (Msg, error)

// RefereeFunc consumes the k player messages and produces the output. It
// has access to the shared randomness but to no input.
type RefereeFunc func(shared *xrand.Shared, msgs []Msg) error

// simPlayers returns the ordered players over top. It builds no local
// graph: each player's View reads the topology's cache on demand.
func simPlayers(top *Topology) []*SimPlayer {
	workers := parwork.Workers(top.intra)
	players := make([]*SimPlayer, top.K())
	for j := range players {
		players[j] = &SimPlayer{
			ID:      j,
			K:       top.K(),
			N:       top.N(),
			Edges:   top.Input(j),
			Shared:  top.Shared(),
			Workers: workers,
			top:     top,
		}
	}
	return players
}

// firstErr returns the lowest-indexed non-nil error, so players that
// fail concurrently report the error a player-order loop would.
func firstErr(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// RunSimultaneousOn executes one protocol in the simultaneous model over
// top: every player computes its message concurrently, the messages are
// metered, and the referee is invoked on the ordered message vector.
func RunSimultaneousOn(ctx context.Context, top *Topology, player SimPlayerFunc, referee RefereeFunc) (s Stats, err error) {
	start := time.Now()
	k := top.K()
	meter := NewMeter(k)
	defer func() { observeSession("simultaneous", start, s, meter.takePhaseTimings(), nil, err) }()
	msgs := make([]Msg, k)
	errs := make([]error, k)

	players := simPlayers(top)
	if len(players) > 0 {
		mIntraWorkers.Set(float64(players[0].Workers))
	}
	var wg sync.WaitGroup
	for _, p := range players {
		p.meter = meter
		wg.Add(1)
		go func(p *SimPlayer) {
			defer wg.Done()
			if err := ctx.Err(); err != nil {
				errs[p.ID] = fmt.Errorf("%w: %v", ErrCanceled, err)
				return
			}
			m, err := player(p)
			if err != nil {
				errs[p.ID] = fmt.Errorf("player %d: %w", p.ID, err)
				return
			}
			msgs[p.ID] = m
		}(p)
	}
	wg.Wait()
	if err := firstErr(errs); err != nil {
		return meter.Snapshot(), err
	}
	for j, m := range msgs {
		meter.AddUp(j, m.Bits())
	}
	meter.AddRound()
	if err := referee(top.Shared(), msgs); err != nil {
		return meter.Snapshot(), fmt.Errorf("referee: %w", err)
	}
	return meter.Snapshot(), nil
}
