package transport

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Fault injection. Faulty wraps any inner dialer and perturbs each frame a
// session sends — drop, duplication, bit corruption, stall, hard disconnect
// — from a splitmix64 stream seeded per (link, direction), exactly the way
// WAN seeds its jitter. The schedule is therefore a pure function of
// (FaultSpec.Seed, link index, direction, transmission index): rerunning a
// session replays the identical faults, which is what makes failures
// reproducible and the resilience layer's retransmit accounting
// deterministic.
//
// Loss is sender-visible: a Send whose frame was dropped, or delivered
// corrupted, returns ErrFrameLost. This models a link layer with
// transmission feedback and is the deliberate design point that keeps
// retransmit counts deterministic — an ack/timeout ARQ would make them a
// function of wall-clock racing. Corrupted frames are still delivered (with
// one bit flipped), so the receiving resilience layer must detect and
// discard them by checksum rather than decode them; duplicated frames are
// delivered twice and must be deduplicated by sequence number.

// Fault-layer errors.
var (
	// ErrFrameLost is returned by a Faulty endpoint's Send when the frame
	// was dropped or delivered corrupted. The resilient layer retransmits
	// on it; a raw Faulty conn surfaces it to the caller.
	ErrFrameLost = errors.New("transport: frame lost (injected fault)")
	// ErrAborted is returned once a link is irrecoverably gone: after an
	// injected hard disconnect, or when the resilient layer exhausts its
	// retransmit budget or per-message deadline. It is distinct from
	// ErrClosed so sessions can tell a fault abort from graceful teardown.
	ErrAborted = errors.New("transport: link aborted")
)

// FaultSpec configures deterministic fault injection on every link of a
// session. All rates are per-transmission probabilities in [0, 1); the zero
// value injects nothing. The spec is JSON-serializable so jobs and CLIs can
// carry it, and the seed makes any failure replayable.
type FaultSpec struct {
	// Seed selects the fault schedule (0 lets callers derive one from the
	// trial seed via WithSeed).
	Seed uint64 `json:"seed,omitempty"`
	// Drop is the probability a frame is silently lost.
	Drop float64 `json:"drop,omitempty"`
	// Duplicate is the probability a frame is delivered twice.
	Duplicate float64 `json:"duplicate,omitempty"`
	// Corrupt is the probability a frame is delivered with one bit flipped.
	Corrupt float64 `json:"corrupt,omitempty"`
	// Stall is the probability a frame is held for StallMS before delivery.
	Stall float64 `json:"stall,omitempty"`
	// StallMS is the stall duration in milliseconds (default 1).
	StallMS float64 `json:"stall_ms,omitempty"`
	// Disconnect is the probability a transmission hard-kills the link:
	// both endpoints observe ErrAborted from then on.
	Disconnect float64 `json:"disconnect,omitempty"`
	// MaxResend bounds the resilient layer's retransmits per message
	// (default 16); past it the sender reports ErrAborted.
	MaxResend int `json:"max_resend,omitempty"`
	// DeadlineMS is the resilient layer's per-message receive deadline in
	// milliseconds (default 30000). It is a liveness backstop: with
	// sender-visible loss it only fires when the peer has already aborted.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
}

// Enabled reports whether the spec injects any fault at all.
func (s FaultSpec) Enabled() bool {
	return s.Drop > 0 || s.Duplicate > 0 || s.Corrupt > 0 || s.Stall > 0 || s.Disconnect > 0
}

// WithSeed returns the spec with Seed filled from seed when it is 0 — the
// hook callers use to derive an independent fault schedule per trial while
// an explicit seed still pins one schedule exactly.
func (s FaultSpec) WithSeed(seed uint64) FaultSpec {
	if s.Seed == 0 {
		s.Seed = seed
	}
	return s
}

// Validate checks the rate and parameter ranges.
func (s FaultSpec) Validate() error {
	rates := []struct {
		name string
		v    float64
	}{
		{"drop", s.Drop}, {"duplicate", s.Duplicate}, {"corrupt", s.Corrupt},
		{"stall", s.Stall}, {"disconnect", s.Disconnect},
	}
	for _, r := range rates {
		if r.v < 0 || r.v >= 1 {
			return fmt.Errorf("transport: fault %s rate %v out of range [0, 1)", r.name, r.v)
		}
	}
	if s.StallMS < 0 {
		return fmt.Errorf("transport: negative stall_ms %v", s.StallMS)
	}
	if s.MaxResend < 0 {
		return fmt.Errorf("transport: negative max_resend %d", s.MaxResend)
	}
	if s.DeadlineMS < 0 {
		return fmt.Errorf("transport: negative deadline_ms %d", s.DeadlineMS)
	}
	return nil
}

func (s FaultSpec) maxResend() int {
	if s.MaxResend > 0 {
		return s.MaxResend
	}
	return 16
}

func (s FaultSpec) recvDeadline() time.Duration {
	if s.DeadlineMS > 0 {
		return time.Duration(s.DeadlineMS) * time.Millisecond
	}
	return 30 * time.Second
}

func (s FaultSpec) stall() time.Duration {
	if s.StallMS > 0 {
		return time.Duration(s.StallMS * float64(time.Millisecond))
	}
	return time.Millisecond
}

// FaultPresets maps the named fault presets accepted by ParseFaultSpec to
// their specs — the usage-text vocabulary, like TransportNames.
func FaultPresets() map[string]FaultSpec {
	return map[string]FaultSpec{
		"lossy": {Drop: 0.05, Duplicate: 0.02, Corrupt: 0.02},
		"chaos": {Drop: 0.15, Duplicate: 0.1, Corrupt: 0.1, Stall: 0.05, Disconnect: 0.002},
	}
}

// ParseFaultSpec parses a fault argument: "" / "off" / "none" (no faults),
// a preset name from FaultPresets, or a JSON FaultSpec object.
func ParseFaultSpec(s string) (FaultSpec, error) {
	switch s {
	case "", "off", "none":
		return FaultSpec{}, nil
	}
	if spec, ok := FaultPresets()[s]; ok {
		return spec, nil
	}
	if !strings.HasPrefix(strings.TrimSpace(s), "{") {
		names := make([]string, 0, len(FaultPresets()))
		for name := range FaultPresets() {
			names = append(names, name)
		}
		return FaultSpec{}, fmt.Errorf("transport: unknown fault preset %q (valid: off, %s, or a JSON spec)",
			s, strings.Join(names, ", "))
	}
	var spec FaultSpec
	dec := json.NewDecoder(strings.NewReader(s))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return FaultSpec{}, fmt.Errorf("transport: bad fault spec: %v", err)
	}
	if err := spec.Validate(); err != nil {
		return FaultSpec{}, err
	}
	return spec, nil
}

// FaultInjector is implemented by dialers that inject faults. The engine
// uses it to detect a lossy transport, harden each link with the resilient
// layer (Harden), and skip the exact wire-byte cross-check (retransmits and
// envelope overhead intentionally break CheckWire's bound).
type FaultInjector interface {
	FaultProfile() FaultSpec
}

// Faulty wraps any inner dialer and injects Spec's faults on every link.
// With a disabled spec it is a transparent pass-through wrapper (the
// contract suite runs it as such).
type Faulty struct {
	// Inner is the wrapped dialer; nil means Chan{}.
	Inner Dialer
	// Spec is the fault schedule.
	Spec FaultSpec
}

func (f Faulty) inner() Dialer {
	if f.Inner == nil {
		return Chan{}
	}
	return f.Inner
}

// Name identifies the transport.
func (f Faulty) Name() string { return "faulty+" + f.inner().Name() }

// FaultProfile exposes the spec to the engine (FaultInjector).
func (f Faulty) FaultProfile() FaultSpec { return f.Spec }

// Dial opens k links over the inner dialer and wraps every endpoint.
func (f Faulty) Dial(k int) ([]Link, error) {
	links, err := f.inner().Dial(k)
	if err != nil {
		return nil, err
	}
	for j := range links {
		links[j] = f.newLink(j, links[j])
	}
	return links, nil
}

// newLink wraps one link. The two directions get independent fault streams
// seeded like WAN's jitter; the per-direction counter blocks and the dead
// channel are shared by both endpoints, so either endpoint's Stats shows
// the whole link and a disconnect kills both sides.
func (f Faulty) newLink(idx int, l Link) Link {
	ab := &dirCounters{}
	ba := &dirCounters{}
	dead := make(chan struct{})
	var deadOnce sync.Once
	a := &faultyConn{
		inner: l.A, spec: f.Spec, out: ab, in: ba,
		state: f.Spec.Seed ^ splitmix64(uint64(2*idx+1)),
		dead:  dead, deadOnce: &deadOnce,
	}
	b := &faultyConn{
		inner: l.B, spec: f.Spec, out: ba, in: ab,
		state: f.Spec.Seed ^ splitmix64(uint64(2*idx+2)),
		dead:  dead, deadOnce: &deadOnce,
	}
	return Link{A: a, B: b}
}

// dirCounters is one direction's shared counter block. Everything is
// counted on the sending side at Send time — including the bytes the
// receiver will see — so snapshots taken at protocol quiescent points are
// deterministic (receiver-side processing of an injected duplicate may lag
// a snapshot; its send never does).
type dirCounters struct {
	bytes  atomic.Int64 // attempted wire bytes, retransmits and dups included
	frames atomic.Int64
	lost   atomic.Int64 // injected drops + corruptions
}

// faultyConn is one endpoint of a fault-injected link.
type faultyConn struct {
	inner    Conn
	spec     FaultSpec
	out, in  *dirCounters
	dead     chan struct{}
	deadOnce *sync.Once

	mu    sync.Mutex // guards state (Send is single-goroutine, but be safe)
	state uint64     // splitmix64 fault stream for this direction
}

// draw returns the next six fault-schedule values for one transmission:
// disconnect, drop, corrupt, corrupt-bit, duplicate, stall. Every category
// is drawn on every transmission whether or not its rate is zero, so a
// transmission's faults depend only on its index in the direction's stream.
func (c *faultyConn) draw() (disc, drop, corr float64, bit uint64, dup, stall float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	u := func() float64 { return float64(splitmixNext(&c.state)>>11) / (1 << 53) }
	disc = u()
	drop = u()
	corr = u()
	bit = splitmixNext(&c.state)
	dup = u()
	stall = u()
	return
}

// Send transmits f through the fault schedule. It returns ErrFrameLost
// when the frame was dropped or delivered corrupted (sender-visible loss),
// and ErrAborted once the link has hard-disconnected.
func (c *faultyConn) Send(ctx context.Context, f Frame) error {
	select {
	case <-c.dead:
		return ErrAborted
	default:
	}
	disc, drop, corr, bit, dup, stall := c.draw()
	if disc < c.spec.Disconnect {
		c.deadOnce.Do(func() {
			close(c.dead)
			countFault("disconnect")
		})
		return ErrAborted
	}
	if drop < c.spec.Drop {
		// Dropped on the wire: the bytes were spent, nothing arrives.
		c.out.bytes.Add(int64(FrameSize(f.Bits)))
		c.out.frames.Add(1)
		c.out.lost.Add(1)
		countFault("drop")
		return ErrFrameLost
	}
	if corr < c.spec.Corrupt && len(f.Data) > 0 {
		// Deliver a copy with one deterministic bit flipped; the receiver's
		// checksum must catch it. Loss is still reported to the sender.
		data := append([]byte(nil), f.Data...)
		i := bit % uint64(len(data)*8)
		data[i/8] ^= 1 << (7 - i%8)
		if err := c.send(ctx, Frame{Bits: f.Bits, Data: data}); err != nil {
			return err
		}
		c.out.lost.Add(1)
		countFault("corrupt")
		return ErrFrameLost
	}
	if stall < c.spec.Stall {
		countFault("stall")
		t := time.NewTimer(c.spec.stall())
		select {
		case <-t.C:
		case <-c.dead:
			t.Stop()
			return ErrAborted
		case <-ctx.Done():
			t.Stop()
			return ctx.Err()
		}
	}
	if err := c.send(ctx, f); err != nil {
		return err
	}
	if dup < c.spec.Duplicate {
		// Counted up front, as a drop is: the peer already has the frame
		// and may close before the copy lands, so delivery is best effort.
		c.out.bytes.Add(int64(FrameSize(f.Bits)))
		c.out.frames.Add(1)
		countFault("duplicate")
		_ = c.inner.Send(ctx, f)
	}
	return nil
}

// send performs one actual transmission on the inner conn, counting it.
func (c *faultyConn) send(ctx context.Context, f Frame) error {
	if err := c.inner.Send(ctx, f); err != nil {
		return err
	}
	c.out.bytes.Add(int64(FrameSize(f.Bits)))
	c.out.frames.Add(1)
	return nil
}

// Recv passes through to the inner conn, surfacing ErrAborted once the
// link has hard-disconnected. With a disconnect rate configured, a blocked
// Recv is unblocked by a watcher canceling a derived context when the
// link dies.
func (c *faultyConn) Recv(ctx context.Context) (Frame, error) {
	select {
	case <-c.dead:
		return Frame{}, ErrAborted
	default:
	}
	if c.spec.Disconnect > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithCancel(ctx)
		defer cancel()
		go func() {
			select {
			case <-c.dead:
				cancel()
			case <-ctx.Done():
			}
		}()
	}
	f, err := c.inner.Recv(ctx)
	if err != nil {
		select {
		case <-c.dead:
			return Frame{}, ErrAborted
		default:
		}
		return Frame{}, err
	}
	return f, nil
}

// Close releases the endpoint. Idempotent.
func (c *faultyConn) Close() error { return c.inner.Close() }

// Stats snapshots the link's shared counters: out is this direction's
// attempted traffic, in is the peer direction's (sender-counted, so the
// numbers are deterministic at quiescent points even when an injected
// duplicate is still in flight).
func (c *faultyConn) Stats() LinkStats {
	return LinkStats{
		BytesOut:  c.out.bytes.Load(),
		BytesIn:   c.in.bytes.Load(),
		FramesOut: c.out.frames.Load(),
		FramesIn:  c.in.frames.Load(),
	}
}
