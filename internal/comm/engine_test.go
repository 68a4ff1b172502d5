package comm

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"tricomm/internal/graph"
	"tricomm/internal/wire"
	"tricomm/internal/xrand"
)

func TestTopologyViewCacheReuse(t *testing.T) {
	top := testTopology(t, 8, 4)
	// Views are deterministic, built lazily, and cached: the same pointer
	// must come back on every access and from every run.
	v0 := top.View(0)
	if v0 == nil || v0.M() != len(top.Input(0)) {
		t.Fatalf("view 0 wrong: %+v", v0)
	}
	if top.View(0) != v0 {
		t.Fatal("view rebuilt on second access")
	}
	var fromRun *graph.Graph
	_, err := RunOn(context.Background(), top,
		func(ctx context.Context, c *Coordinator) error {
			_, err := c.AskAll(ctx, Ack())
			return err
		},
		ServeLoop(func(p *Player, _ uint64, _ Msg) (Msg, error) {
			if p.ID == 0 {
				fromRun = p.View
			}
			return Ack(), nil
		}))
	if err != nil {
		t.Fatal(err)
	}
	if fromRun != v0 {
		t.Fatal("run did not reuse the cached view")
	}
	// WithShared shares the cache.
	if top.WithShared(xrand.New(2)).View(0) != v0 {
		t.Fatal("WithShared did not share the view cache")
	}
}

func TestTopologyViewConcurrentAccess(t *testing.T) {
	// Many goroutines racing to materialize the same views must all see
	// one build (run under -race in CI).
	top := testTopology(t, 8, 4)
	var wg sync.WaitGroup
	views := make([]*graph.Graph, 32)
	for i := range views {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			views[i] = top.View(i % 4)
		}(i)
	}
	wg.Wait()
	for i, v := range views {
		if v != top.View(i%4) {
			t.Fatalf("goroutine %d saw a different view", i)
		}
	}
}

// chatter is a synthetic multi-round protocol with per-player
// variable-size replies, exercising Broadcast/Gather/AskAll fan-out.
func chatter(rounds int) (CoordinatorFunc, PlayerFunc) {
	coord := func(ctx context.Context, c *Coordinator) error {
		for r := 0; r < rounds; r++ {
			var w wire.Writer
			w.WriteUvarint(uint64(r))
			replies, err := c.AskAll(ctx, FromWriter(&w))
			if err != nil {
				return err
			}
			for j, m := range replies {
				v, err := m.Reader().ReadUvarint()
				if err != nil {
					return err
				}
				if int(v) != j*(r+1) {
					return fmt.Errorf("round %d: player %d replied %d", r, j, v)
				}
			}
		}
		return nil
	}
	player := ServeLoop(func(p *Player, _ uint64, req Msg) (Msg, error) {
		r, err := req.Reader().ReadUvarint()
		if err != nil {
			return Msg{}, err
		}
		var w wire.Writer
		w.WriteUvarint(uint64(p.ID) * (r + 1))
		return FromWriter(&w), nil
	})
	return coord, player
}

func TestConcurrentFanoutMatchesSequentialStats(t *testing.T) {
	// The regression the engine promises: concurrent fan-out changes the
	// schedule, never the accounting. Both schedules over the same
	// topology must produce identical Stats.
	top := testTopology(t, 8, 8)
	coord, player := chatter(25)
	conc, err := RunOn(context.Background(), top, coord, player)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := RunOn(context.Background(), top, coord, player, SequentialFanout())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(conc, seq) {
		t.Fatalf("stats diverged:\nconcurrent: %+v\nsequential: %+v", conc, seq)
	}
	if conc.Rounds != 25 || conc.Messages != 25*8*2 {
		t.Fatalf("unexpected totals: %+v", conc)
	}
}

func TestParallelBroadcastGatherRace(t *testing.T) {
	// Heavy fan-out with k=16 players and busy replies; meaningful mostly
	// under -race, which CI runs.
	top := testTopology(t, 8, 16)
	coord, player := chatter(50)
	if _, err := RunOn(context.Background(), top, coord, player); err != nil {
		t.Fatal(err)
	}
}

func TestCancellationMidRound(t *testing.T) {
	// Cancel while a round is in flight: one player never replies, so the
	// coordinator is parked in Gather when the context dies. Everything
	// must unwind, with ErrCanceled surfaced.
	top := testTopology(t, 8, 4)
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	done := make(chan struct{})
	var runErr error
	go func() {
		defer close(done)
		_, runErr = RunOn(ctx, top,
			func(ctx context.Context, c *Coordinator) error {
				_, err := c.AskAll(ctx, Ack())
				return err
			},
			func(ctx context.Context, p *Player) error {
				if _, err := p.Recv(ctx); err != nil {
					if errors.Is(err, ErrShutdown) || errors.Is(err, ErrCanceled) {
						return nil
					}
					return err
				}
				if p.ID == 2 {
					close(started)
					<-ctx.Done() // never reply
					return nil
				}
				return p.Send(ctx, Ack())
			})
	}()
	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("round never started")
	}
	cancel()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("cancellation did not unwind the session")
	}
	if !errors.Is(runErr, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", runErr)
	}
}

func TestGatherUnblocksOnPlayerError(t *testing.T) {
	// One player dies mid-round without replying while another is parked
	// waiting for a request that never comes: the concurrent fan-in must
	// surface the error instead of waiting for the silent player forever.
	top := testTopology(t, 8, 3)
	boom := errors.New("boom")
	done := make(chan struct{})
	var runErr error
	go func() {
		defer close(done)
		_, runErr = RunOn(context.Background(), top,
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
				switch p.ID {
				case 0:
					return boom // dies without replying
				case 1:
					// Silent: waits for a second request that never comes;
					// must be unblocked by session shutdown.
					_, err := p.Recv(ctx)
					if errors.Is(err, ErrShutdown) {
						return nil
					}
					return err
				default:
					return p.Send(ctx, Ack())
				}
			})
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("gather deadlocked on the silent player")
	}
	if !errors.Is(runErr, boom) {
		t.Fatalf("err = %v, want %v", runErr, boom)
	}
}

func TestMeterPhaseAttribution(t *testing.T) {
	top := testTopology(t, 8, 3)
	stats, err := RunOn(context.Background(), top,
		func(ctx context.Context, c *Coordinator) error {
			c.BeginPhase("ping")
			if _, err := c.AskAll(ctx, Ack()); err != nil {
				return err
			}
			c.BeginPhase("pong")
			if _, err := c.AskAll(ctx, Ack()); err != nil {
				return err
			}
			c.BeginPhase("ping") // resumes the first counter
			_, err := c.AskAll(ctx, Ack())
			return err
		},
		ServeLoop(func(p *Player, _ uint64, _ Msg) (Msg, error) { return Ack(), nil }))
	if err != nil {
		t.Fatal(err)
	}
	// 3 rounds × 3 players × (1 down + 1 up) = 18 bits, split 12/6.
	if stats.Phase("ping") != 12 || stats.Phase("pong") != 6 {
		t.Fatalf("phase split = %v, want ping=12 pong=6", stats.Phases)
	}
	// Phases must come out in declaration order, not hash order.
	want := []Phase{{Name: "ping", Bits: 12}, {Name: "pong", Bits: 6}}
	if !reflect.DeepEqual(stats.Phases, want) {
		t.Fatalf("phase order = %v, want %v", stats.Phases, want)
	}
	var sum int64
	for _, p := range stats.Phases {
		sum += p.Bits
	}
	if sum != stats.TotalBits {
		t.Fatalf("phases sum %d != total %d", sum, stats.TotalBits)
	}
}

func TestBoardCoordinatorPostsDedicatedCounter(t *testing.T) {
	b := NewBoard(2)
	var w wire.Writer
	w.WriteUint(0, 20)
	if err := b.Post(0, FromWriter(&w)); err != nil {
		t.Fatal(err)
	}
	var w2 wire.Writer
	w2.WriteUint(0, 7)
	if err := b.Post(CoordinatorID, FromWriter(&w2)); err != nil {
		t.Fatal(err)
	}
	s := b.Stats()
	if s.CoordinatorBits != 7 {
		t.Fatalf("CoordinatorBits = %d, want 7", s.CoordinatorBits)
	}
	if s.TotalBits != 27 {
		t.Fatalf("TotalBits = %d, want 27", s.TotalBits)
	}
	// The fix: board traffic from the coordinator lands on no player
	// channel — previously it was misattributed to player 0.
	if s.PerPlayer[0] != 20 || s.PerPlayer[1] != 0 {
		t.Fatalf("PerPlayer = %v, want [20 0]", s.PerPlayer)
	}
}

func TestSimultaneousOnReusesViews(t *testing.T) {
	top := testTopology(t, 8, 4)
	seen := make([]*graph.Graph, 4)
	_, err := RunSimultaneousOn(context.Background(), top,
		func(p *SimPlayer) (Msg, error) {
			seen[p.ID] = p.View
			return Ack(), nil
		},
		func(_ *xrand.Shared, msgs []Msg) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	for j, v := range seen {
		if v != top.View(j) {
			t.Fatalf("player %d got a rebuilt view", j)
		}
	}
}
