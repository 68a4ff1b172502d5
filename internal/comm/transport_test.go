package comm

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"tricomm/internal/transport"
	"tricomm/internal/wire"
)

func testDialers() []transport.Dialer {
	return []transport.Dialer{
		transport.Chan{},
		transport.Net{},
		transport.Net{TCP: true},
		transport.WAN{Latency: 20 * time.Microsecond, Jitter: 20 * time.Microsecond,
			Bandwidth: 1 << 30, Seed: 11},
	}
}

// TestRunOnTransportAgnostic is the runtime half of the transport contract:
// the same protocol over the same topology must produce identical Stats —
// bits, rounds, messages, per-player traffic, and even WireBytes, since
// every transport frames identically — no matter which transport carries
// the session.
func TestRunOnTransportAgnostic(t *testing.T) {
	top := testTopology(t, 8, 6)
	coord, player := chatter(12)
	base, err := RunOn(context.Background(), top, coord, player)
	if err != nil {
		t.Fatal(err)
	}
	if base.WireBytes == 0 || base.PerLinkBytes == nil {
		t.Fatalf("baseline run has no wire accounting: %+v", base)
	}
	for _, d := range testDialers()[1:] {
		t.Run(d.Name(), func(t *testing.T) {
			got, err := RunOn(context.Background(), top.WithTransport(d), coord, player)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, base) {
				t.Fatalf("stats diverged on %s:\n got %+v\nwant %+v", d.Name(), got, base)
			}
		})
	}
}

// TestWireBytesExact pins the byte-for-bit accounting on a protocol whose
// traffic is small enough to enumerate: every metered message is one frame
// of HeaderBytes + ceil(bits/8) wire bytes.
func TestWireBytesExact(t *testing.T) {
	top := testTopology(t, 8, 2)
	var reqBits, repBits int
	coord := func(ctx context.Context, c *Coordinator) error {
		var w wire.Writer
		w.WriteUint(0x1ff, 9) // 9-bit request
		reqBits = w.BitLen()
		replies, err := c.AskAll(ctx, FromWriter(&w))
		if err != nil {
			return err
		}
		repBits = replies[0].Bits()
		return nil
	}
	player := ServeLoop(func(p *Player, req Msg) (Msg, error) {
		var w wire.Writer
		w.WriteUint(0x1ffff, 17) // 17-bit reply
		return FromWriter(&w), nil
	})
	for _, d := range testDialers() {
		t.Run(d.Name(), func(t *testing.T) {
			stats, err := RunOn(context.Background(), top.WithTransport(d), coord, player)
			if err != nil {
				t.Fatal(err)
			}
			perLink := int64(transport.FrameSize(reqBits) + transport.FrameSize(repBits))
			if want := 2 * perLink; stats.WireBytes != want {
				t.Fatalf("WireBytes = %d, want %d (%+v)", stats.WireBytes, want, stats)
			}
			for j, b := range stats.PerLinkBytes {
				if b != perLink {
					t.Fatalf("link %d bytes = %d, want %d", j, b, perLink)
				}
			}
			if err := CheckWire(stats); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestCheckWire exercises the cross-check's failure modes directly.
func TestCheckWire(t *testing.T) {
	// No transport in play: vacuously fine.
	if err := CheckWire(Stats{UpBits: 1000}); err != nil {
		t.Errorf("nil PerLinkBytes: %v", err)
	}
	// Wire bytes below bits/8: impossible, must be flagged.
	s := Stats{UpBits: 800, DownBits: 800, Messages: 2, WireBytes: 100, PerLinkBytes: []int64{100}}
	if err := CheckWire(s); err == nil {
		t.Error("undercounted wire bytes not flagged")
	}
	// Wire bytes beyond the framing-overhead envelope: flagged too.
	s.WireBytes = 800/8 + 800/8 + 6*2 + 1
	if err := CheckWire(s); err == nil {
		t.Error("overcounted wire bytes not flagged")
	}
	// Exactly at the envelope: fine.
	s.WireBytes = 200 + 2 // two 800-bit frames: 100 payload bytes + 2-byte header each
	if err := CheckWire(s); err != nil {
		t.Errorf("exact accounting flagged: %v", err)
	}
}

// TestShutdownOverSocketTransports re-runs the graceful-shutdown scenarios
// over a socket transport, where teardown crosses a real connection
// instead of a channel close.
func TestShutdownOverSocketTransports(t *testing.T) {
	for _, d := range []transport.Dialer{transport.Net{}, transport.Net{TCP: true}} {
		t.Run(d.Name(), func(t *testing.T) {
			top := testTopology(t, 8, 3)
			done := make(chan error, 1)
			go func() {
				_, err := RunOn(context.Background(), top.WithTransport(d),
					func(ctx context.Context, c *Coordinator) error {
						// Talk one round, then leave without telling anyone.
						_, err := c.AskAll(ctx, Ack())
						return err
					},
					ServeLoop(func(p *Player, _ Msg) (Msg, error) { return Ack(), nil }))
				done <- err
			}()
			select {
			case err := <-done:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("session over socket transport did not shut down")
			}
		})
	}
}

// TestCancellationOverTCP pins that context cancellation unblocks a
// session whose links are real sockets (read-deadline plumbing).
func TestCancellationOverTCP(t *testing.T) {
	top := testTopology(t, 8, 2)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := RunOn(ctx, top.WithTransport(transport.Net{TCP: true}),
			func(ctx context.Context, c *Coordinator) error {
				_, err := c.Recv(ctx, 0) // wait for a message that never comes
				return err
			},
			func(ctx context.Context, p *Player) error {
				_, err := p.Recv(ctx)
				if errors.Is(err, ErrShutdown) || errors.Is(err, ErrCanceled) {
					return nil
				}
				return err
			})
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("err = %v, want ErrCanceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancellation did not unblock the TCP session")
	}
}
