package transport

import (
	"context"
	"sync"
)

// Chan is the in-process transport: each direction of a link is a buffered
// Go channel and frames cross by reference, exactly as the engine's
// pre-transport runtime moved messages. Nothing is serialized; byte
// counters are computed arithmetically from the framing layout, so the
// accounting matches the transports that put real bytes on a wire. The
// steady-state hot path allocates nothing (pinned by BenchmarkChanRoundTrip).
type Chan struct {
	// Buf is the per-direction frame buffer depth; 0 means 1. One slot is
	// enough for a round: the coordinator's Send to each player deposits
	// without waiting for that player to reach Recv, and a reply never
	// blocks on the coordinator reaching that player's Recv.
	Buf int
}

// Name identifies the transport.
func (Chan) Name() string { return "chan" }

// Dial opens k in-process links.
func (c Chan) Dial(k int) ([]Link, error) {
	buf := c.Buf
	if buf <= 0 {
		buf = 1
	}
	links := make([]Link, k)
	for j := range links {
		links[j] = newChanLink(buf)
	}
	return links, nil
}

func newChanLink(buf int) Link {
	ab := make(chan Frame, buf) // A → B
	ba := make(chan Frame, buf) // B → A
	ca := make(chan struct{})   // closed when A closes
	cb := make(chan struct{})   // closed when B closes
	a := &chanConn{out: ab, in: ba, closed: ca, peerClosed: cb}
	b := &chanConn{out: ba, in: ab, closed: cb, peerClosed: ca}
	return Link{A: a, B: b}
}

// chanConn is one endpoint of an in-process link. The data channels are
// never closed — teardown is signaled through the closed channels — so a
// concurrent Send can never panic on a closed channel.
type chanConn struct {
	out        chan Frame
	in         chan Frame
	closed     chan struct{} // this endpoint closed
	peerClosed chan struct{} // peer endpoint closed
	once       sync.Once
	stats      endStats
}

// Send deposits f into the link's buffer. A closed link is reported
// up-front so a dead peer is observed deterministically instead of the
// frame slipping into a buffer nobody will drain.
func (c *chanConn) Send(ctx context.Context, f Frame) error {
	select {
	case <-c.closed:
		return ErrClosed
	case <-c.peerClosed:
		return ErrClosed
	default:
	}
	select {
	case c.out <- f:
		c.stats.sent(f.Bits)
		return nil
	case <-c.closed:
		return ErrClosed
	case <-c.peerClosed:
		return ErrClosed
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Recv blocks for the next frame. When the peer closes, frames it already
// sent are drained first (the drain race mirrors the engine's historical
// shutdown semantics), then ErrClosed is reported.
func (c *chanConn) Recv(ctx context.Context) (Frame, error) {
	select {
	case f := <-c.in:
		c.stats.received(f.Bits)
		return f, nil
	case <-c.closed:
		return Frame{}, ErrClosed
	case <-c.peerClosed:
		// Drain race: a frame may already be in flight.
		select {
		case f := <-c.in:
			c.stats.received(f.Bits)
			return f, nil
		default:
			return Frame{}, ErrClosed
		}
	case <-ctx.Done():
		return Frame{}, ctx.Err()
	}
}

// Close releases the endpoint. Idempotent.
func (c *chanConn) Close() error {
	c.once.Do(func() { close(c.closed) })
	return nil
}

// Stats snapshots the endpoint's counters.
func (c *chanConn) Stats() LinkStats { return c.stats.snapshot() }
