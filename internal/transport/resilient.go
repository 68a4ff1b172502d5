package transport

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sync"
	"sync/atomic"
	"time"
)

// Resilient links. Harden wraps both endpoints of a (typically Faulty)
// link in an ARQ layer that makes the paper's protocols survive injected
// faults without ever decoding a damaged message:
//
//   - every protocol frame travels inside an envelope carrying a sequence
//     number and a CRC32 checksum, so corruption is detected and the frame
//     discarded rather than decoded, and duplicates are dropped by seq;
//   - a Send that observes sender-visible loss (ErrFrameLost) retransmits,
//     up to the spec's MaxResend budget, then reports ErrAborted — because
//     loss is synchronous, the retransmit count per message is a pure
//     function of the fault schedule, never of timing;
//   - Recv applies a per-message deadline (spec DeadlineMS) as a liveness
//     backstop: it can only fire when the peer has already aborted or hung,
//     so it never perturbs the deterministic accounting of completed runs.
//
// A completed run over a hardened link delivers exactly the frame sequence
// the protocol sent — same contents, same order — so verdicts, witnesses,
// and metered bits are byte-identical to a fault-free run; the only
// observable differences are WireBytes (envelope overhead + retransmits +
// duplicates, all sender-counted) and the resilience counters.

// Envelope layout, nested inside a Frame's payload (the base frame layout
// of frame.go is pinned by golden tests and never changes):
//
//	[uvarint seq][uvarint payload bits][payload ceil(bits/8) bytes][crc32]
//
// The CRC32 (IEEE, big-endian) covers every preceding byte. The envelope
// frame's Bits is its full byte length × 8.

// appendEnvelope appends the envelope encoding of (seq, f) to dst.
func appendEnvelope(dst []byte, seq uint64, f Frame) []byte {
	dst = binary.AppendUvarint(dst, seq)
	dst = binary.AppendUvarint(dst, uint64(f.Bits))
	dst = append(dst, f.Data[:(f.Bits+7)/8]...)
	return binary.BigEndian.AppendUint32(dst, crc32.ChecksumIEEE(dst))
}

// decodeEnvelope parses and verifies one envelope. ok is false for any
// malformed or checksum-failing envelope — the corruption-detection path.
func decodeEnvelope(f Frame) (seq uint64, inner Frame, ok bool) {
	p := f.Data[:(f.Bits+7)/8]
	if len(p) < 4 {
		return 0, Frame{}, false
	}
	body, sum := p[:len(p)-4], binary.BigEndian.Uint32(p[len(p)-4:])
	if crc32.ChecksumIEEE(body) != sum {
		return 0, Frame{}, false
	}
	seq, n := binary.Uvarint(body)
	if n <= 0 {
		return 0, Frame{}, false
	}
	bits, m := binary.Uvarint(body[n:])
	if m <= 0 || bits > MaxFrameBits {
		return 0, Frame{}, false
	}
	payload := body[n+m:]
	if len(payload) != int(bits+7)/8 {
		return 0, Frame{}, false
	}
	return seq, Frame{Bits: int(bits), Data: payload}, true
}

// ResilienceStats counts a hardened link's recovery work, in both
// directions (the counter blocks are shared by the link's endpoints).
type ResilienceStats struct {
	// Retransmits counts frames re-sent after sender-visible loss.
	Retransmits int64
	// FramesLost counts injected drops and corruptions (sender-observed).
	FramesLost int64
	// FramesDiscarded counts received envelopes rejected by the checksum
	// or the duplicate filter. Receiver-side and therefore only stable
	// once the link quiesces; tests use it, metered Stats do not.
	FramesDiscarded int64
}

// ResilienceReporter is implemented by hardened conns; the engine collects
// the counters into its run Stats.
type ResilienceReporter interface {
	Resilience() ResilienceStats
}

// linkResilience is the per-link shared recovery-counter block.
type linkResilience struct {
	retrans   atomic.Int64
	discarded atomic.Int64
}

// Harden wraps both endpoints of l in the resilient ARQ layer configured
// by spec. The caller must still Close both returned endpoints (closing a
// hardened endpoint closes its inner conn and reaps the receive pump).
func Harden(l Link, spec FaultSpec) Link {
	shared := &linkResilience{}
	return Link{A: newResilient(l.A, spec, shared), B: newResilient(l.B, spec, shared)}
}

func newResilient(inner Conn, spec FaultSpec, shared *linkResilience) *resilientConn {
	ctx, cancel := context.WithCancel(context.Background())
	c := &resilientConn{
		inner:      inner,
		spec:       spec,
		shared:     shared,
		wake:       make(chan struct{}),
		pumpCtx:    ctx,
		pumpCancel: cancel,
		pumpDone:   make(chan struct{}),
	}
	go c.pump()
	return c
}

// resilientConn is one endpoint of a hardened link. A pump goroutine owns
// the inner Recv, verifying, deduplicating, and re-ordering envelopes into
// an in-order queue that Recv drains; Send runs in the caller's goroutine.
type resilientConn struct {
	inner  Conn
	spec   FaultSpec
	shared *linkResilience

	seq uint64 // next send sequence number (Send is single-goroutine)

	mu     sync.Mutex
	queue  []Frame       // verified, in-order frames awaiting Recv
	err    error         // terminal pump error, after the queue drains
	wake   chan struct{} // replaced-and-closed on every queue/err change
	expect uint64        // next expected receive sequence number (pump only)

	pumpCtx    context.Context
	pumpCancel context.CancelFunc
	pumpDone   chan struct{}
	closeOnce  sync.Once
}

// Send transmits one protocol frame reliably: it envelopes the frame and
// retransmits on sender-visible loss up to the spec's budget, then reports
// the exhaustion as ErrAborted. Retransmit counts are deterministic.
func (c *resilientConn) Send(ctx context.Context, f Frame) error {
	env := appendEnvelope(nil, c.seq, f)
	c.seq++
	ef := Frame{Bits: 8 * len(env), Data: env}
	budget := c.spec.maxResend()
	for attempt := 0; ; attempt++ {
		err := c.inner.Send(ctx, ef)
		if err == nil {
			return nil
		}
		if !errors.Is(err, ErrFrameLost) {
			return err
		}
		if attempt >= budget {
			return fmt.Errorf("%w: retransmit budget %d exhausted", ErrAborted, budget)
		}
		c.shared.retrans.Add(1)
	}
}

// pump owns the inner conn's receive side: it verifies checksums, drops
// duplicates, and appends in-order frames to the queue until the inner
// conn reports a terminal error (close, abort, or pump cancellation).
func (c *resilientConn) pump() {
	defer close(c.pumpDone)
	for {
		f, err := c.inner.Recv(c.pumpCtx)
		if err != nil {
			if c.pumpCtx.Err() != nil {
				err = ErrClosed // reaped by our own Close
			}
			c.fail(err)
			return
		}
		seq, inner, ok := decodeEnvelope(f)
		if !ok || seq != c.expect {
			// Corrupt, or a duplicate of an already-delivered seq (the only
			// way seq can differ under sender-visible loss: a lost frame is
			// retransmitted before the sender ever moves on).
			c.shared.discarded.Add(1)
			continue
		}
		c.expect++
		c.deliver(inner)
	}
}

func (c *resilientConn) deliver(f Frame) {
	c.mu.Lock()
	c.queue = append(c.queue, f)
	close(c.wake)
	c.wake = make(chan struct{})
	c.mu.Unlock()
}

func (c *resilientConn) fail(err error) {
	c.mu.Lock()
	if c.err == nil {
		c.err = err
	}
	close(c.wake)
	c.wake = make(chan struct{})
	c.mu.Unlock()
}

// Recv returns the next verified in-order protocol frame. Frames delivered
// before a peer close are drained first (the transport drain contract);
// the per-message deadline turns a hang — possible only when the peer has
// already aborted without closing — into ErrAborted.
func (c *resilientConn) Recv(ctx context.Context) (Frame, error) {
	timer := time.NewTimer(c.spec.recvDeadline())
	defer timer.Stop()
	for {
		c.mu.Lock()
		if len(c.queue) > 0 {
			f := c.queue[0]
			c.queue = c.queue[1:]
			c.mu.Unlock()
			return f, nil
		}
		if c.err != nil {
			err := c.err
			c.mu.Unlock()
			return Frame{}, err
		}
		wake := c.wake
		c.mu.Unlock()
		select {
		case <-wake:
		case <-ctx.Done():
			return Frame{}, ctx.Err()
		case <-timer.C:
			return Frame{}, fmt.Errorf("%w: no frame within %v", ErrAborted, c.spec.recvDeadline())
		}
	}
}

// Close releases the endpoint: the pump is canceled and reaped, then the
// inner conn closed. Idempotent.
func (c *resilientConn) Close() error {
	c.closeOnce.Do(func() {
		c.pumpCancel()
		c.inner.Close()
		<-c.pumpDone
	})
	return nil
}

// Stats delegates to the inner conn: the wire traffic of a hardened link
// is whatever actually crossed it, envelopes, retransmits, and duplicates
// included.
func (c *resilientConn) Stats() LinkStats { return c.inner.Stats() }

// Resilience snapshots the link's recovery counters (both directions).
func (c *resilientConn) Resilience() ResilienceStats {
	rs := ResilienceStats{
		Retransmits:     c.shared.retrans.Load(),
		FramesDiscarded: c.shared.discarded.Load(),
	}
	if fc, ok := c.inner.(*faultyConn); ok {
		rs.FramesLost = fc.out.lost.Load() + fc.in.lost.Load()
	}
	return rs
}
