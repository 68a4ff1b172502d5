package comm

import (
	"context"
	"testing"

	"tricomm/internal/wire"
	"tricomm/internal/xrand"
)

func BenchmarkAskAllRoundTrip(b *testing.B) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		top, err := NewTopology(1024, make([][]wire.Edge, 8), xrand.New(1))
		if err != nil {
			b.Fatal(err)
		}
		_, err = RunOn(context.Background(), top,
			func(ctx context.Context, c *Coordinator) error {
				for r := 0; r < 10; r++ {
					if _, err := c.AskAll(ctx, Ack()); err != nil {
						return err
					}
				}
				return nil
			},
			ServeLoop(func(p *Player, _ uint64, _ Msg) (Msg, error) { return Ack(), nil }))
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSimultaneousRound(b *testing.B) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		top, err := NewTopology(1024, make([][]wire.Edge, 8), xrand.New(1))
		if err != nil {
			b.Fatal(err)
		}
		_, err = RunSimultaneousOn(context.Background(), top,
			func(p *SimPlayer) (Msg, error) { return Ack(), nil },
			func(_ *xrand.Shared, msgs []Msg) error { return nil })
		if err != nil {
			b.Fatal(err)
		}
	}
}
