package comm

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"tricomm/internal/graph"
	"tricomm/internal/wire"
	"tricomm/internal/xrand"
)

// testTopology splits the edges of the complete graph K_n round-robin
// over k players.
func testTopology(t testing.TB, n, k int) *Topology {
	t.Helper()
	inputs := make([][]wire.Edge, k)
	for i, e := range graph.Complete(n).Edges() {
		inputs[i%k] = append(inputs[i%k], e)
	}
	top, err := NewTopology(n, inputs, xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	return top
}

func TestMsgRoundTrip(t *testing.T) {
	var w wire.Writer
	w.WriteUvarint(777)
	m := FromWriter(&w)
	if m.Bits() != w.BitLen() {
		t.Fatalf("Bits = %d, want %d", m.Bits(), w.BitLen())
	}
	v, err := m.Reader().ReadUvarint()
	if err != nil || v != 777 {
		t.Fatalf("decode = %d, %v", v, err)
	}
	// Reader is fresh each time.
	v2, err := m.Reader().ReadUvarint()
	if err != nil || v2 != 777 {
		t.Fatal("second Reader not independent")
	}
	// The message is immune to writer reuse.
	w.Reset()
	w.WriteUvarint(1)
	if v3, _ := m.Reader().ReadUvarint(); v3 != 777 {
		t.Fatal("message aliased the writer buffer")
	}
}

// Ack is a conventional 1-bit acknowledgement message.
func Ack() Msg {
	var w wire.Writer
	w.WriteBit(1)
	return FromWriter(&w)
}

// Phase returns the bit total of the named phase (0 when absent).
func (s Stats) Phase(name string) int64 {
	for _, p := range s.Phases {
		if p.Name == name {
			return p.Bits
		}
	}
	return 0
}

func TestEmptyAndAck(t *testing.T) {
	var m Msg
	if m.Bits() != 0 {
		t.Fatal("zero Msg not empty")
	}
	if Ack().Bits() != 1 {
		t.Fatalf("Ack bits = %d", Ack().Bits())
	}
}

func TestRunRequestReply(t *testing.T) {
	top := testTopology(t, 6, 4)
	var reported []int64
	stats, err := RunOn(context.Background(), top,
		func(ctx context.Context, c *Coordinator) error {
			// Ask every player how many edges it holds.
			replies, err := c.AskAll(ctx, Ack())
			if err != nil {
				return err
			}
			for _, m := range replies {
				v, err := m.Reader().ReadUvarint()
				if err != nil {
					return err
				}
				reported = append(reported, int64(v))
			}
			return nil
		},
		ServeLoop(func(p *Player, _ uint64, _ Msg) (Msg, error) {
			var w wire.Writer
			w.WriteUvarint(uint64(len(p.Edges)))
			return FromWriter(&w), nil
		}))
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, v := range reported {
		total += v
	}
	if total != 15 { // K6 has 15 edges
		t.Fatalf("players reported %d edges total, want 15", total)
	}
	if stats.Rounds != 1 {
		t.Fatalf("rounds = %d, want 1", stats.Rounds)
	}
	if stats.Messages != 8 { // 4 down + 4 up
		t.Fatalf("messages = %d, want 8", stats.Messages)
	}
	wantDown := int64(4 * 1) // four 1-bit acks
	if stats.DownBits != wantDown {
		t.Fatalf("down bits = %d, want %d", stats.DownBits, wantDown)
	}
	if stats.UpBits != 4*8 { // four 8-bit uvarints
		t.Fatalf("up bits = %d, want 32", stats.UpBits)
	}
	if stats.TotalBits != stats.UpBits+stats.DownBits {
		t.Fatal("TotalBits inconsistent")
	}
}

func TestRunPlayerViews(t *testing.T) {
	top := testTopology(t, 6, 3)
	_, err := RunOn(context.Background(), top,
		func(ctx context.Context, c *Coordinator) error {
			_, err := c.AskAll(ctx, Ack())
			return err
		},
		ServeLoop(func(p *Player, _ uint64, _ Msg) (Msg, error) {
			if p.View.M() != len(p.Edges) {
				return Msg{}, fmt.Errorf("view edges %d != input %d", p.View.M(), len(p.Edges))
			}
			for _, e := range p.Edges {
				if !p.View.HasEdge(e.U, e.V) {
					return Msg{}, fmt.Errorf("view missing %v", e)
				}
			}
			return Ack(), nil
		}))
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunGracefulShutdown(t *testing.T) {
	// Players blocked in Recv must exit when the coordinator returns.
	top := testTopology(t, 6, 5)
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, err := RunOn(context.Background(), top,
			func(ctx context.Context, c *Coordinator) error {
				return nil // immediately finish without talking to anyone
			},
			func(ctx context.Context, p *Player) error {
				_, err := p.Recv(ctx)
				if !errors.Is(err, ErrShutdown) {
					return fmt.Errorf("expected shutdown, got %v", err)
				}
				return nil
			})
		if err != nil {
			t.Errorf("Run: %v", err)
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("cluster did not shut down")
	}
}

func TestRunPlayerBlockedInSendShutsDown(t *testing.T) {
	top := testTopology(t, 6, 2)
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, err := RunOn(context.Background(), top,
			func(ctx context.Context, c *Coordinator) error {
				return nil
			},
			func(ctx context.Context, p *Player) error {
				// Send unsolicited; the coordinator never receives. The first
				// send may land in the channel buffer; keep sending until the
				// buffer is full and the send truly blocks — shutdown must
				// still unblock it.
				for {
					err := p.Send(ctx, Ack())
					if err == nil {
						continue
					}
					if !errors.Is(err, ErrShutdown) {
						return fmt.Errorf("expected shutdown, got %v", err)
					}
					return nil
				}
			})
		if err != nil {
			t.Errorf("Run: %v", err)
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("cluster did not shut down")
	}
}

func TestRunContextCancellation(t *testing.T) {
	top := testTopology(t, 6, 2)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, err := RunOn(ctx, top,
			func(ctx context.Context, c *Coordinator) error {
				// Wait for a message that never comes; must unblock on cancel.
				_, err := c.Recv(ctx, 0)
				return err
			},
			func(ctx context.Context, p *Player) error {
				_, err := p.Recv(ctx)
				if errors.Is(err, ErrShutdown) || errors.Is(err, ErrCanceled) {
					return nil
				}
				return err
			})
		if !errors.Is(err, ErrCanceled) {
			t.Errorf("err = %v, want ErrCanceled", err)
		}
	}()
	cancel()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("cancellation did not unblock the cluster")
	}
}

func TestRunPlayerErrorPropagates(t *testing.T) {
	top := testTopology(t, 6, 3)
	wantErr := errors.New("player exploded")
	_, err := RunOn(context.Background(), top,
		func(ctx context.Context, c *Coordinator) error {
			_, err := c.AskAll(ctx, Ack())
			return err
		},
		func(ctx context.Context, p *Player) error {
			if _, err := p.Recv(ctx); err != nil {
				if errors.Is(err, ErrShutdown) {
					return nil
				}
				return err
			}
			if p.ID == 1 {
				// Reply first so the coordinator is not left hanging.
				if err := p.Send(ctx, Ack()); err != nil {
					return err
				}
				return wantErr
			}
			return p.Send(ctx, Ack())
		})
	if !errors.Is(err, wantErr) {
		t.Fatalf("err = %v, want %v", err, wantErr)
	}
}

func TestRunCoordinatorErrorPropagates(t *testing.T) {
	top := testTopology(t, 6, 2)
	wantErr := errors.New("coordinator exploded")
	_, err := RunOn(context.Background(), top,
		func(ctx context.Context, c *Coordinator) error { return wantErr },
		ServeLoop(func(p *Player, _ uint64, _ Msg) (Msg, error) { return Ack(), nil }))
	if !errors.Is(err, wantErr) {
		t.Fatalf("err = %v, want %v", err, wantErr)
	}
}

func TestRunValidation(t *testing.T) {
	inputs := make([][]wire.Edge, 2)
	if _, err := NewTopology(6, nil, xrand.New(1)); err == nil {
		t.Fatal("empty player set accepted")
	}
	if _, err := NewTopology(6, inputs, nil); err == nil {
		t.Fatal("nil shared randomness accepted")
	}
	if _, err := NewTopology(-1, inputs, xrand.New(1)); err == nil {
		t.Fatal("negative N accepted")
	}
}

func TestMultiRoundProtocol(t *testing.T) {
	// A 3-round ping protocol: verifies per-round accounting and that
	// ServeLoop players survive multiple requests.
	top := testTopology(t, 6, 3)
	stats, err := RunOn(context.Background(), top,
		func(ctx context.Context, c *Coordinator) error {
			for round := 0; round < 3; round++ {
				if _, err := c.AskAll(ctx, Ack()); err != nil {
					return err
				}
			}
			return nil
		},
		ServeLoop(func(p *Player, _ uint64, _ Msg) (Msg, error) { return Ack(), nil }))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Rounds != 3 {
		t.Fatalf("rounds = %d, want 3", stats.Rounds)
	}
	if stats.TotalBits != 3*3*2 { // 3 rounds × 3 players × (1 down + 1 up)
		t.Fatalf("total bits = %d, want 18", stats.TotalBits)
	}
}

// TestServeLoopIndexMatchesAsks checks the request numbering public
// randomness is keyed by: the index ServeLoop hands its handler equals the
// coordinator's Asks() before the AskAll that sent the request.
func TestServeLoopIndexMatchesAsks(t *testing.T) {
	top := testTopology(t, 6, 3)
	_, err := RunOn(context.Background(), top,
		func(ctx context.Context, c *Coordinator) error {
			for i := uint64(0); i < 5; i++ {
				if c.Asks() != i {
					return fmt.Errorf("Asks() = %d before request %d", c.Asks(), i)
				}
				replies, err := c.AskAll(ctx, Ack())
				if err != nil {
					return err
				}
				for j, m := range replies {
					if r, err := m.Reader().ReadUvarint(); err != nil || r != i {
						return fmt.Errorf("request %d: player %d saw index %d (%v)", i, j, r, err)
					}
				}
			}
			return nil
		},
		ServeLoop(func(p *Player, r uint64, _ Msg) (Msg, error) {
			var w wire.Writer
			w.WriteUvarint(r)
			return FromWriter(&w), nil
		}))
	if err != nil {
		t.Fatal(err)
	}
}

func TestPerPlayerAccounting(t *testing.T) {
	top := testTopology(t, 6, 2)
	stats, err := RunOn(context.Background(), top,
		func(ctx context.Context, c *Coordinator) error {
			// Talk only to player 0.
			var w wire.Writer
			w.WriteUint(0, 10)
			if err := c.Send(ctx, 0, FromWriter(&w)); err != nil {
				return err
			}
			_, err := c.Recv(ctx, 0)
			return err
		},
		ServeLoop(func(p *Player, _ uint64, _ Msg) (Msg, error) {
			var w wire.Writer
			w.WriteUint(0, 6)
			return FromWriter(&w), nil
		}))
	if err != nil {
		t.Fatal(err)
	}
	if stats.PerPlayer[0] != 16 || stats.PerPlayer[1] != 0 {
		t.Fatalf("per-player = %v, want [16 0]", stats.PerPlayer)
	}
	if stats.MaxPlayerBits() != 16 {
		t.Fatalf("MaxPlayerBits = %d", stats.MaxPlayerBits())
	}
}
