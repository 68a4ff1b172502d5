package comm

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"tricomm/internal/graph"
	"tricomm/internal/parwork"
	"tricomm/internal/transport"
	"tricomm/internal/xrand"
)

// Player is a player's endpoint in the coordinator model: its identity,
// private input, the shared randomness, and its private link to the
// coordinator. A Player is used only from its own goroutine.
type Player struct {
	// ID is the player index in [0, K).
	ID int
	// K is the number of players.
	K int
	// N is the vertex universe size.
	N int
	// Edges is the player's private input E_j.
	Edges []graph.Edge
	// View is the player's local graph (V, E_j), shared with (and cached
	// by) the topology the session runs over.
	View *graph.Graph
	// Shared is the public randomness (identical on all parties).
	Shared *xrand.Shared
	// Workers is the resolved intra-phase worker count: hot local loops
	// may fan across up to this many goroutines (via parwork). Always ≥ 1;
	// results and bit accounting are identical at every value.
	Workers int

	conn  transport.Conn
	meter *Meter
}

// ObserveParallel attributes d of wall clock to the session's intra-phase
// parallel regions (observability only — never part of Stats). Safe on a
// Player with no attached meter.
func (p *Player) ObserveParallel(d time.Duration) { p.meter.ObserveParallel(d) }

// Recv blocks for the next coordinator message. It returns ErrShutdown if
// the coordinator has finished, or the context error if ctx is canceled.
func (p *Player) Recv(ctx context.Context) (Msg, error) {
	f, err := p.conn.Recv(ctx)
	if err != nil {
		if errors.Is(err, transport.ErrAborted) {
			return Msg{}, fmt.Errorf("%w: %v", ErrSessionAborted, err)
		}
		if errors.Is(err, transport.ErrClosed) {
			return Msg{}, ErrShutdown
		}
		if ctx.Err() != nil {
			return Msg{}, fmt.Errorf("%w: %v", ErrCanceled, ctx.Err())
		}
		return Msg{}, err
	}
	return msgOf(f), nil
}

// Send transmits a message to the coordinator. It returns ErrShutdown if
// the coordinator has already finished (the message is then dropped).
// Upstream bits are metered on the coordinator's receive side so that
// Coordinator.Stats, read from the coordinator goroutine, is always
// consistent with the messages it has observed.
func (p *Player) Send(ctx context.Context, m Msg) error {
	if err := p.conn.Send(ctx, frameOf(m)); err != nil {
		if errors.Is(err, transport.ErrAborted) {
			return fmt.Errorf("%w: %v", ErrSessionAborted, err)
		}
		if errors.Is(err, transport.ErrClosed) {
			return ErrShutdown
		}
		if ctx.Err() != nil {
			return fmt.Errorf("%w: %v", ErrCanceled, ctx.Err())
		}
		return err
	}
	return nil
}

// PlayerFunc is the code run by each player goroutine.
type PlayerFunc func(ctx context.Context, p *Player) error

// Coordinator is the coordinator's endpoint: a private transport link to
// every player plus the shared randomness. Single-message Send/Recv are
// used from the coordinator goroutine only; Broadcast, Gather, and AskAll
// fan out internally but present the same single-goroutine interface.
type Coordinator struct {
	// K is the number of players.
	K int
	// N is the vertex universe size.
	N int
	// Shared is the public randomness.
	Shared *xrand.Shared
	// Workers is the resolved intra-phase worker count for coordinator-side
	// local compute (same contract as Player.Workers).
	Workers int

	links []transport.Conn
	pdone []<-chan struct{} // closed when the player goroutine exits
	meter *Meter
	seq   bool   // sequential fan-out (regression-testing knob)
	asks  uint64 // AskAll calls so far
}

// linkErr maps a transport failure on player j's link to the
// coordinator-side error vocabulary. Cancellation is checked before a
// closed link: a player that exits because the run was canceled closes
// its link, and the run must still report ErrCanceled.
func (c *Coordinator) linkErr(ctx context.Context, j int, err error) error {
	if errors.Is(err, transport.ErrAborted) {
		return fmt.Errorf("%w: player %d link: %v", ErrSessionAborted, j, err)
	}
	if ctx.Err() != nil {
		return fmt.Errorf("%w: %v", ErrCanceled, ctx.Err())
	}
	if errors.Is(err, transport.ErrClosed) {
		return fmt.Errorf("%w: player %d", ErrPlayerDone, j)
	}
	return err
}

// Send transmits a message to player j. It returns ErrPlayerDone if the
// player goroutine has already exited — checked up front, so a dead
// player is reported deterministically instead of the message slipping
// into the link's buffer.
func (c *Coordinator) Send(ctx context.Context, j int, m Msg) error {
	select {
	case <-c.pdone[j]:
		return fmt.Errorf("%w: player %d", ErrPlayerDone, j)
	default:
	}
	if err := c.links[j].Send(ctx, frameOf(m)); err != nil {
		return c.linkErr(ctx, j, err)
	}
	c.meter.AddDown(j, m.Bits())
	return nil
}

// Recv blocks for the next message from player j. It returns
// ErrPlayerDone if the player goroutine has exited (Run then surfaces the
// player's own error).
func (c *Coordinator) Recv(ctx context.Context, j int) (Msg, error) {
	f, err := c.links[j].Recv(ctx)
	if err != nil {
		return Msg{}, c.linkErr(ctx, j, err)
	}
	c.meter.AddUp(j, f.Bits)
	return msgOf(f), nil
}

// firstErr returns the lowest-indexed non-nil error, so the concurrent
// fan-out reports the same error a sequential player-order loop would.
func firstErr(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Broadcast sends m to every player concurrently. In the coordinator model
// a broadcast is k unicasts and is charged k·|m| bits; per-message atomic
// metering makes the accounting identical to the sequential schedule.
func (c *Coordinator) Broadcast(ctx context.Context, m Msg) error {
	if c.seq {
		for j := 0; j < c.K; j++ {
			if err := c.Send(ctx, j, m); err != nil {
				return err
			}
		}
		return nil
	}
	// Fast path: on transports with free buffer space an idle player costs
	// no goroutine. A player that has already exited is routed to the slow
	// path so Send reports ErrPlayerDone instead of depositing into its
	// dead buffer; so is any link whose transport cannot accept the frame
	// without blocking.
	f := frameOf(m)
	var pending []int
	for j := 0; j < c.K; j++ {
		select {
		case <-c.pdone[j]:
			pending = append(pending, j)
			continue
		default:
		}
		if ts, ok := c.links[j].(transport.TrySender); ok && ts.TrySend(f) {
			c.meter.AddDown(j, m.Bits())
			continue
		}
		pending = append(pending, j)
	}
	if len(pending) == 0 {
		return nil
	}
	errs := make([]error, len(pending))
	var wg sync.WaitGroup
	for i, j := range pending {
		wg.Add(1)
		go func(i, j int) {
			defer wg.Done()
			errs[i] = c.Send(ctx, j, m)
		}(i, j)
	}
	wg.Wait()
	return firstErr(errs)
}

// Gather receives one message from every player concurrently; the returned
// slice is in player order regardless of arrival order.
func (c *Coordinator) Gather(ctx context.Context) ([]Msg, error) {
	msgs := make([]Msg, c.K)
	if c.seq {
		for j := 0; j < c.K; j++ {
			m, err := c.Recv(ctx, j)
			if err != nil {
				return nil, err
			}
			msgs[j] = m
		}
		return msgs, nil
	}
	// Fast path: drain replies already delivered to the links.
	var pending []int
	for j := 0; j < c.K; j++ {
		if tr, ok := c.links[j].(transport.TryReceiver); ok {
			if f, got := tr.TryRecv(); got {
				c.meter.AddUp(j, f.Bits)
				msgs[j] = msgOf(f)
				continue
			}
		}
		pending = append(pending, j)
	}
	if len(pending) == 0 {
		return msgs, nil
	}
	// Fan in concurrently, returning on the first failure so that a dead
	// player aborts the round even while another player never replies —
	// waiting for all k would deadlock the session on that player.
	// Receivers still parked in Recv when an error wins unwind at session
	// shutdown; the result channel is buffered so they never block on it.
	type gathered struct {
		j   int
		m   Msg
		err error
	}
	ch := make(chan gathered, len(pending))
	for _, j := range pending {
		go func(j int) {
			m, err := c.Recv(ctx, j)
			ch <- gathered{j: j, m: m, err: err}
		}(j)
	}
	for range pending {
		g := <-ch
		if g.err != nil {
			return nil, g.err
		}
		msgs[g.j] = g.m
	}
	return msgs, nil
}

// AskAll sends m to every player and gathers all replies, counting one
// round and one request (see Asks).
func (c *Coordinator) AskAll(ctx context.Context, m Msg) ([]Msg, error) {
	c.asks++
	c.Round()
	if err := c.Broadcast(ctx, m); err != nil {
		return nil, err
	}
	return c.Gather(ctx)
}

// Asks returns the number of AskAll calls the session has made: the index
// ServeLoop hands every player with the next request. The two counts agree
// while the coordinator reaches ServeLoop players only through AskAll,
// since a link delivers each frame exactly once and in order (a hardened
// link retransmits and deduplicates below the engine).
func (c *Coordinator) Asks() uint64 { return c.asks }

// Round declares the start of a new protocol round (for accounting only).
func (c *Coordinator) Round() { c.meter.AddRound() }

// BeginPhase attributes subsequent traffic to the named phase (see
// Meter.BeginPhase). Call between rounds.
func (c *Coordinator) BeginPhase(name string) { c.meter.BeginPhase(name) }

// Stats snapshots the communication cost so far, including the wire bytes
// that crossed the session's transport links; protocols use it to
// attribute bits to phases.
func (c *Coordinator) Stats() Stats {
	s := c.meter.Snapshot()
	c.addWire(&s)
	return s
}

// addWire attaches the per-link wire-byte counters to a snapshot. Links
// are read from the coordinator endpoint only, whose counters advance in
// lockstep with the meter (down bytes at Send, up bytes at Recv), so bits
// and bytes agree at every quiescent point.
func (c *Coordinator) addWire(s *Stats) {
	if len(c.links) == 0 {
		return
	}
	s.PerLinkBytes = make([]int64, len(c.links))
	for j, conn := range c.links {
		ls := conn.Stats()
		s.PerLinkBytes[j] = ls.BytesOut + ls.BytesIn
		s.WireBytes += s.PerLinkBytes[j]
		// Hardened links additionally report recovery work; the
		// coordinator-side endpoint's counters cover both directions.
		if rr, ok := conn.(transport.ResilienceReporter); ok {
			rs := rr.Resilience()
			s.Retransmits += rs.Retransmits
			s.FramesLost += rs.FramesLost
		}
	}
}

// CoordinatorFunc is the coordinator's protocol code. When it returns, the
// cluster shuts down: players blocked in Recv observe ErrShutdown.
type CoordinatorFunc func(ctx context.Context, c *Coordinator) error

// RunOption tweaks a session's execution strategy (never its accounting).
type RunOption func(*runOpts)

type runOpts struct {
	seqFanout bool
}

// SequentialFanout makes Broadcast/Gather serialize their k unicasts in
// player order. It exists for regression tests and benchmarks comparing
// the two schedules; on successful runs, results and Stats are identical
// either way.
func SequentialFanout() RunOption {
	return func(o *runOpts) { o.seqFanout = true }
}

// RunOn executes one protocol in the coordinator model over top: it opens
// one transport link per player from the topology's dialer, spawns one
// goroutine per player running player, executes coord in the calling
// goroutine, then shuts the players down and waits for them. The first
// non-shutdown error from any party is returned alongside the cost
// snapshot. Player views come from the topology's cache. On successful
// runs the wire-byte counters are cross-checked against the bit meter
// (CheckWire).
func RunOn(ctx context.Context, top *Topology, coord CoordinatorFunc, player PlayerFunc, opts ...RunOption) (Stats, error) {
	start := time.Now()
	var o runOpts
	for _, opt := range opts {
		opt(&o)
	}
	dial := top.Transport()
	k := top.K()
	meter := NewMeter(k)
	workers := parwork.Workers(top.intra)
	mIntraWorkers.Set(float64(workers))

	links, err := dial.Dial(k)
	if err != nil {
		return Stats{}, fmt.Errorf("comm: dial %s transport: %w", dial.Name(), err)
	}

	// A fault-injecting transport gets the resilience layer on every link:
	// checksummed envelopes, bounded retransmits, per-message deadlines.
	// Lossy runs skip CheckWire — retransmits and envelope overhead
	// intentionally exceed its bound — but keep the bit meter exact.
	lossy := false
	if fi, ok := dial.(transport.FaultInjector); ok && fi.FaultProfile().Enabled() {
		lossy = true
		spec := fi.FaultProfile()
		for j := range links {
			links[j] = transport.Harden(links[j], spec)
		}
	}

	pdone := make([]chan struct{}, k)
	c := &Coordinator{
		K:       k,
		N:       top.N(),
		Shared:  top.Shared(),
		Workers: workers,
		links:   make([]transport.Conn, k),
		pdone:   make([]<-chan struct{}, k),
		meter:   meter,
		seq:     o.seqFanout,
	}
	for j := 0; j < k; j++ {
		c.links[j] = links[j].A
		pdone[j] = make(chan struct{})
		c.pdone[j] = pdone[j]
	}

	errs := make(chan error, k)
	var wg sync.WaitGroup
	for j := 0; j < k; j++ {
		p := &Player{
			ID:      j,
			K:       k,
			N:       top.N(),
			Edges:   top.Input(j),
			View:    top.View(j),
			Shared:  top.Shared(),
			Workers: workers,
			conn:    links[j].B,
			meter:   meter,
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Closing the player's endpoint unblocks a coordinator waiting
			// in Recv on, or Send to, a player that has terminated; pdone
			// closes first so Send reports the exit deterministically.
			defer links[p.ID].B.Close()
			defer close(pdone[p.ID])
			if err := player(ctx, p); err != nil && !errors.Is(err, ErrShutdown) {
				errs <- fmt.Errorf("player %d: %w", p.ID, err)
			}
		}()
	}

	coordErr := coord(ctx, c)
	// Closing the coordinator endpoints is the shutdown signal: players
	// blocked in Recv drain any in-flight message and observe ErrShutdown.
	for j := 0; j < k; j++ {
		links[j].A.Close()
	}
	wg.Wait()
	close(errs)

	stats := meter.Snapshot()
	c.addWire(&stats)

	// Player errors take precedence: a coordinator error of "player
	// terminated" is a symptom, the player's own failure is the cause.
	var finalErr error
	for err := range errs {
		if err != nil && finalErr == nil {
			finalErr = err
		}
	}
	if finalErr == nil && coordErr != nil {
		finalErr = fmt.Errorf("coordinator: %w", coordErr)
	}
	if finalErr == nil && !lossy {
		finalErr = CheckWire(stats)
	}
	observeSession("coordinator", start, stats, meter.takePhaseTimings(), c.links, finalErr)
	return stats, finalErr
}

// CheckWire cross-checks a session's wire-byte counters against its bit
// meter. Every metered message crosses a link as one frame of
// HeaderBytes(bits) + ceil(bits/8) wire bytes, so at any quiescent point
//
//	ceil(linkBits/8) ≤ WireBytes ≤ linkBits/8 + (MaxHeaderBytes+1)·Messages
//
// where linkBits = UpBits + DownBits (coordinator blackboard posts cross no
// link) and MaxHeaderBytes+1 bounds the per-frame overhead: at most
// MaxHeaderBytes bytes of length prefix plus one byte of payload padding.
// A snapshot without link counters (models that run without a transport)
// passes vacuously.
func CheckWire(s Stats) error {
	if s.PerLinkBytes == nil {
		return nil
	}
	linkBits := s.UpBits + s.DownBits
	lo := (linkBits + 7) / 8
	hi := linkBits/8 + int64(transport.MaxHeaderBytes+1)*s.Messages
	if s.WireBytes < lo || s.WireBytes > hi {
		return fmt.Errorf("comm: wire bytes %d inconsistent with meter: %d link bits over %d messages want [%d, %d]",
			s.WireBytes, linkBits, s.Messages, lo, hi)
	}
	return nil
}

// ServeLoop is a convenience player main loop: it calls handle for every
// coordinator message and sends back the reply, exiting cleanly on
// shutdown. Most request/reply protocols use it directly. handle gets the
// request's index r in the session, counted from 0; it equals the
// coordinator's Asks() before the AskAll that sent the request.
func ServeLoop(handle func(p *Player, r uint64, req Msg) (Msg, error)) PlayerFunc {
	return func(ctx context.Context, p *Player) error {
		for r := uint64(0); ; r++ {
			req, err := p.Recv(ctx)
			if err != nil {
				if errors.Is(err, ErrShutdown) {
					return nil
				}
				return err
			}
			reply, err := handle(p, r, req)
			if err != nil {
				return err
			}
			if err := p.Send(ctx, reply); err != nil {
				return err
			}
		}
	}
}
