package comm

import (
	"errors"
	"fmt"
	"time"
)

// Board is the blackboard model: every posted message is visible to all
// parties and its bits are charged exactly once, regardless of audience
// size. Execution is synchronous — protocol code schedules the players'
// turns itself — which matches the model's "message by any player is seen
// by everyone" semantics without per-recipient cost.
type Board struct {
	k     int
	meter *Meter
}

// CoordinatorID is the From value for coordinator posts.
const CoordinatorID = -1

// NewBoard returns an empty blackboard for k players.
func NewBoard(k int) *Board {
	if k < 1 {
		panic(fmt.Sprintf("comm: blackboard needs at least one player, got %d", k))
	}
	return &Board{k: k, meter: NewMeter(k)}
}

// Post meters one blackboard message from the given player (or
// CoordinatorID). Its bits are charged once: player posts on the player's
// channel, coordinator posts on the meter's dedicated coordinator counter,
// so board traffic is never misattributed to player 0.
func (b *Board) Post(from int, m Msg) error {
	if from != CoordinatorID && (from < 0 || from >= b.k) {
		return fmt.Errorf("comm: blackboard post from invalid player %d", from)
	}
	if from == CoordinatorID {
		b.meter.AddCoordinator(m.Bits())
	} else {
		b.meter.AddUp(from, m.Bits())
	}
	return nil
}

// Round declares a protocol round for accounting.
func (b *Board) Round() { b.meter.AddRound() }

// BeginPhase attributes subsequent posts to the named phase.
func (b *Board) BeginPhase(name string) { b.meter.BeginPhase(name) }

// ObserveParallel attributes d of wall clock to intra-phase parallel
// regions of the board's active phase (observability only — never part
// of Stats).
func (b *Board) ObserveParallel(d time.Duration) { b.meter.ObserveParallel(d) }

// Stats snapshots the communication cost so far.
func (b *Board) Stats() Stats { return b.meter.Snapshot() }

// BoardPlayersOn returns the blackboard players over top. A player's view
// is built in the topology's cache when it is first read.
func BoardPlayersOn(top *Topology) []*SimPlayer { return simPlayers(top) }

// OneWayResult carries the transcript of a 3-player one-way run.
type OneWayResult struct {
	// AliceMsg and BobMsg form the transcript Charlie observes.
	AliceMsg, BobMsg Msg
	// Stats is the communication cost (Charlie's output is free).
	Stats Stats
}

// RunOneWayOn executes the 3-player "extended one-way" model of §4.2.2:
// Alice speaks from her input, Bob speaks after seeing Alice's message,
// and Charlie — who observes the whole transcript — computes the output.
// top must have exactly three players (Alice = 0, Bob = 1, Charlie = 2).
func RunOneWayOn(
	top *Topology,
	alice func(p *SimPlayer) (Msg, error),
	bob func(p *SimPlayer, aliceMsg Msg) (Msg, error),
	charlie func(p *SimPlayer, aliceMsg, bobMsg Msg) error,
) (res OneWayResult, err error) {
	start := time.Now()
	defer func() { observeSession("oneway", start, res.Stats, nil, nil, err) }()
	if top.K() != 3 {
		return OneWayResult{}, errors.New("comm: one-way model requires exactly 3 players")
	}
	players := simPlayers(top)
	meter := NewMeter(3)

	am, err := alice(players[0])
	if err != nil {
		return OneWayResult{}, fmt.Errorf("alice: %w", err)
	}
	meter.AddUp(0, am.Bits())
	meter.AddRound()

	bm, err := bob(players[1], am)
	if err != nil {
		return OneWayResult{}, fmt.Errorf("bob: %w", err)
	}
	meter.AddUp(1, bm.Bits())
	meter.AddRound()

	if err := charlie(players[2], am, bm); err != nil {
		return OneWayResult{}, fmt.Errorf("charlie: %w", err)
	}
	return OneWayResult{AliceMsg: am, BobMsg: bm, Stats: meter.Snapshot()}, nil
}
