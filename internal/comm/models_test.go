package comm

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"tricomm/internal/wire"
	"tricomm/internal/xrand"
)

func TestRunSimultaneous(t *testing.T) {
	top := testTopology(t, 6, 4)
	var seen []uint64
	stats, err := RunSimultaneousOn(context.Background(), top,
		func(p *SimPlayer) (Msg, error) {
			var w wire.Writer
			w.WriteUvarint(uint64(len(p.Edges)))
			return FromWriter(&w), nil
		},
		func(_ *xrand.Shared, msgs []Msg) error {
			for _, m := range msgs {
				v, err := m.Reader().ReadUvarint()
				if err != nil {
					return err
				}
				seen = append(seen, v)
			}
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	var total uint64
	for _, v := range seen {
		total += v
	}
	if total != 15 {
		t.Fatalf("total edges reported = %d, want 15", total)
	}
	if stats.DownBits != 0 {
		t.Fatalf("simultaneous model has down traffic: %d", stats.DownBits)
	}
	if stats.UpBits != 4*8 {
		t.Fatalf("up bits = %d, want 32", stats.UpBits)
	}
	if stats.Rounds != 1 {
		t.Fatalf("rounds = %d", stats.Rounds)
	}
}

func TestRunSimultaneousMessageOrder(t *testing.T) {
	top := testTopology(t, 6, 6)
	_, err := RunSimultaneousOn(context.Background(), top,
		func(p *SimPlayer) (Msg, error) {
			var w wire.Writer
			w.WriteUvarint(uint64(p.ID))
			return FromWriter(&w), nil
		},
		func(_ *xrand.Shared, msgs []Msg) error {
			for j, m := range msgs {
				v, err := m.Reader().ReadUvarint()
				if err != nil {
					return err
				}
				if int(v) != j {
					return fmt.Errorf("message %d came from player %d", j, v)
				}
			}
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunSimultaneousPlayerError(t *testing.T) {
	top := testTopology(t, 6, 3)
	wantErr := errors.New("boom")
	_, err := RunSimultaneousOn(context.Background(), top,
		func(p *SimPlayer) (Msg, error) {
			if p.ID == 2 {
				return Msg{}, wantErr
			}
			return Ack(), nil
		},
		func(_ *xrand.Shared, msgs []Msg) error { return nil })
	if !errors.Is(err, wantErr) {
		t.Fatalf("err = %v, want %v", err, wantErr)
	}
}

func TestRunSimultaneousRefereeError(t *testing.T) {
	top := testTopology(t, 6, 2)
	wantErr := errors.New("referee boom")
	_, err := RunSimultaneousOn(context.Background(), top,
		func(p *SimPlayer) (Msg, error) { return Ack(), nil },
		func(_ *xrand.Shared, msgs []Msg) error { return wantErr })
	if !errors.Is(err, wantErr) {
		t.Fatalf("err = %v, want %v", err, wantErr)
	}
}

func TestRunSimultaneousCanceled(t *testing.T) {
	top := testTopology(t, 6, 2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunSimultaneousOn(ctx, top,
		func(p *SimPlayer) (Msg, error) { return Ack(), nil },
		func(_ *xrand.Shared, msgs []Msg) error { return nil })
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
}

func TestBoardAccounting(t *testing.T) {
	b := NewBoard(3)
	var w wire.Writer
	w.WriteUint(0, 20)
	if err := b.Post(1, FromWriter(&w)); err != nil {
		t.Fatal(err)
	}
	if err := b.Post(CoordinatorID, Ack()); err != nil {
		t.Fatal(err)
	}
	b.Round()
	s := b.Stats()
	if s.TotalBits != 21 {
		t.Fatalf("total bits = %d, want 21 (charged once, not per audience)", s.TotalBits)
	}
	if s.Rounds != 1 {
		t.Fatalf("rounds = %d", s.Rounds)
	}
	if s.PerPlayer[0] != 0 || s.PerPlayer[1] != 20 || s.PerPlayer[2] != 0 || s.CoordinatorBits != 1 {
		t.Fatalf("post attribution wrong: per-player %v, coordinator %d", s.PerPlayer, s.CoordinatorBits)
	}
}

func TestBoardInvalidPoster(t *testing.T) {
	b := NewBoard(2)
	if err := b.Post(5, Ack()); err == nil {
		t.Fatal("invalid poster accepted")
	}
	if err := b.Post(-2, Ack()); err == nil {
		t.Fatal("invalid poster accepted")
	}
}

func TestBoardPlayers(t *testing.T) {
	top := testTopology(t, 6, 3)
	players := BoardPlayersOn(top)
	if len(players) != 3 {
		t.Fatalf("players = %d", len(players))
	}
	for j, p := range players {
		if p.ID != j || p.K != 3 || p.N != 6 {
			t.Fatalf("player %d metadata wrong: %+v", j, p)
		}
		if p.View().M() != len(p.Edges) {
			t.Fatalf("player %d view mismatch", j)
		}
	}
}

func TestRunOneWay(t *testing.T) {
	top := testTopology(t, 6, 3)
	res, err := RunOneWayOn(top,
		func(p *SimPlayer) (Msg, error) {
			var w wire.Writer
			w.WriteUvarint(uint64(len(p.Edges)))
			return FromWriter(&w), nil
		},
		func(p *SimPlayer, aliceMsg Msg) (Msg, error) {
			a, err := aliceMsg.Reader().ReadUvarint()
			if err != nil {
				return Msg{}, err
			}
			var w wire.Writer
			w.WriteUvarint(a + uint64(len(p.Edges)))
			return FromWriter(&w), nil
		},
		func(p *SimPlayer, aliceMsg, bobMsg Msg) error {
			ab, err := bobMsg.Reader().ReadUvarint()
			if err != nil {
				return err
			}
			if total := ab + uint64(len(p.Edges)); total != 15 {
				return fmt.Errorf("total = %d, want 15", total)
			}
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.TotalBits != int64(res.AliceMsg.Bits()+res.BobMsg.Bits()) {
		t.Fatal("one-way stats do not match transcript")
	}
	if res.Stats.Rounds != 2 {
		t.Fatalf("rounds = %d, want 2", res.Stats.Rounds)
	}
}

func TestRunOneWayRequiresThreePlayers(t *testing.T) {
	top := testTopology(t, 6, 2)
	_, err := RunOneWayOn(top,
		func(p *SimPlayer) (Msg, error) { return Ack(), nil },
		func(p *SimPlayer, _ Msg) (Msg, error) { return Ack(), nil },
		func(p *SimPlayer, _, _ Msg) error { return nil })
	if err == nil {
		t.Fatal("2-player one-way accepted")
	}
}

func TestRunOneWayErrors(t *testing.T) {
	top := testTopology(t, 6, 3)
	boom := errors.New("boom")
	_, err := RunOneWayOn(top,
		func(p *SimPlayer) (Msg, error) { return Msg{}, boom },
		nil, nil)
	if !errors.Is(err, boom) {
		t.Fatalf("alice error lost: %v", err)
	}
	_, err = RunOneWayOn(top,
		func(p *SimPlayer) (Msg, error) { return Ack(), nil },
		func(p *SimPlayer, _ Msg) (Msg, error) { return Msg{}, boom },
		nil)
	if !errors.Is(err, boom) {
		t.Fatalf("bob error lost: %v", err)
	}
	_, err = RunOneWayOn(top,
		func(p *SimPlayer) (Msg, error) { return Ack(), nil },
		func(p *SimPlayer, _ Msg) (Msg, error) { return Ack(), nil },
		func(p *SimPlayer, _, _ Msg) error { return boom })
	if !errors.Is(err, boom) {
		t.Fatalf("charlie error lost: %v", err)
	}
}
