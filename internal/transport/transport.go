// Package transport provides the framed message links that coordinator-model
// protocol sessions run over.
//
// A session between the coordinator and k players uses k independent Links;
// each Link is a bidirectional, ordered, reliable connection carrying Frames
// (bit-strings with an exact bit length, the unit the engine meters). Three
// transports implement the same Conn contract:
//
//   - Chan: in-process buffered channels — the zero-copy fast path every
//     session used before this package existed. Frames cross goroutines by
//     reference; nothing is serialized. Byte counters are computed
//     arithmetically from the framing layout, so accounting is identical to
//     the transports that put real bytes on a wire.
//
//   - Net: net.Pipe or TCP-loopback sockets. Every frame is encoded with the
//     length-prefixed layout of frame.go and actually crosses the connection,
//     validating the bit accounting against wire bytes.
//
//   - WAN: the in-process path with deterministic latency, bandwidth, and
//     jitter injection per frame, for running protocols under simulated
//     wide-area conditions.
//
// # Close semantics
//
// Closing an endpoint is the session-teardown signal:
//
//   - the peer's Recv first drains frames already delivered, then returns
//     ErrClosed;
//   - the peer's Send returns ErrClosed instead of blocking forever;
//   - operations on the closed endpoint itself return ErrClosed.
//
// Every transport guarantees at least one frame of send buffering per
// direction, so one frame in flight never waits for the other side to reach
// Recv. That lets the engine run a round on one goroutine: send to every
// player in order, then receive from every player in order.
package transport

import (
	"context"
	"errors"
)

// ErrClosed is returned by Send and Recv once either endpoint of the link
// has been closed (after any already-delivered frames are drained).
var ErrClosed = errors.New("transport: link closed")

// Frame is one message on a link: the payload bytes of a bit-string plus its
// exact bit length. Data holds ceil(Bits/8) bytes in the MSB-first packing
// of wire.Writer, with zero padding in the final byte. A Frame is immutable
// once sent; receivers must not modify Data.
type Frame struct {
	// Bits is the exact payload length in bits.
	Bits int
	// Data is the packed payload, ceil(Bits/8) bytes (or more; extra bytes
	// are ignored).
	Data []byte
}

// LinkStats counts the framed wire traffic that crossed one endpoint.
// Bytes are on-the-wire sizes: header plus packed payload per frame, whether
// or not the transport actually serialized (the in-process transport counts
// the same bytes the TCP transport puts on the socket).
type LinkStats struct {
	// BytesOut and BytesIn are framed bytes sent and received.
	BytesOut, BytesIn int64
	// FramesOut and FramesIn are the frame counts.
	FramesOut, FramesIn int64
}

// Conn is one endpoint of a Link. Send and Recv block until the frame is
// handed off (Send may return before the peer receives — transports buffer
// at least one frame per direction), the context is done, or the link is
// closed. A Conn's Send and Recv may each be used from one goroutine at a
// time; Send and Recv may be concurrent with each other and with Stats.
type Conn interface {
	// Send transmits one frame. It returns ErrClosed if either endpoint is
	// closed, or the context error if ctx is done first.
	Send(ctx context.Context, f Frame) error
	// Recv blocks for the next frame. After the peer closes, it drains
	// frames already delivered and then returns ErrClosed.
	Recv(ctx context.Context) (Frame, error)
	// Close releases the endpoint and unblocks the peer (see the package
	// comment for the exact semantics). Close is idempotent.
	Close() error
	// Stats snapshots the endpoint's wire-byte counters.
	Stats() LinkStats
}

// Link is one bidirectional connection: two Conn endpoints. By convention
// the engine gives A to the coordinator and B to the player.
type Link struct {
	A, B Conn
}

// Dialer opens the links of one session. Dial(k) returns k independent
// links; the caller owns both endpoints of each and must Close them.
type Dialer interface {
	// Name identifies the transport in logs and reports.
	Name() string
	// Dial opens k independent links.
	Dial(k int) ([]Link, error)
}
