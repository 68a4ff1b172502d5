package comm

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"tricomm/internal/transport"
)

// waitGoroutines polls until the goroutine count returns to base, failing
// with a stack dump on timeout.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		if runtime.NumGoroutine() <= base {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines leaked: %d, want <= %d\n%s",
				runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestRunOnFaultyCompletesIdentical pins the engine half of the resilience
// contract: a session over a lossy-but-survivable fault schedule completes
// with the identical bit meter as the fault-free run; loss shows up only
// in WireBytes and the resilience counters.
func TestRunOnFaultyCompletesIdentical(t *testing.T) {
	top := testTopology(t, 8, 6)
	coord, player := chatter(12)
	base, err := RunOn(context.Background(), top, coord, player)
	if err != nil {
		t.Fatal(err)
	}
	faulty := transport.Faulty{
		Inner: transport.Chan{},
		Spec:  transport.FaultSpec{Seed: 31, Drop: 0.2, Corrupt: 0.1, Duplicate: 0.1},
	}
	got, err := RunOn(context.Background(), top.WithTransport(faulty), coord, player)
	if err != nil {
		t.Fatal(err)
	}
	if got.TotalBits != base.TotalBits || got.UpBits != base.UpBits ||
		got.DownBits != base.DownBits || got.Messages != base.Messages ||
		got.Rounds != base.Rounds {
		t.Fatalf("faulted bit meter diverged:\nbase %+v\ngot  %+v", base, got)
	}
	if got.WireBytes <= base.WireBytes {
		t.Fatalf("faulted wire bytes %d not above clean %d", got.WireBytes, base.WireBytes)
	}
	if got.Retransmits == 0 || got.FramesLost == 0 {
		t.Fatalf("loss at these rates must reach Stats: %+v", got)
	}
	if base.Retransmits != 0 || base.FramesLost != 0 {
		t.Fatalf("clean run has nonzero resilience counters: %+v", base)
	}
}

// TestRunOnFaultyAborts pins the typed failure mode end to end: a schedule
// the retransmit budget cannot survive surfaces ErrSessionAborted from
// RunOn — promptly, with no leaked goroutines.
func TestRunOnFaultyAborts(t *testing.T) {
	base := runtime.NumGoroutine()
	top := testTopology(t, 8, 4)
	coord, player := chatter(12)
	faulty := transport.Faulty{
		Inner: transport.Chan{},
		Spec:  transport.FaultSpec{Seed: 5, Drop: 0.9, MaxResend: 2, DeadlineMS: 5000},
	}
	_, err := RunOn(context.Background(), top.WithTransport(faulty), coord, player)
	if !errors.Is(err, ErrSessionAborted) {
		t.Fatalf("RunOn over a hopeless link: %v, want ErrSessionAborted", err)
	}
	waitGoroutines(t, base)
}

// TestRunOnFaultyDisconnectAborts covers the hard-disconnect path: the
// link dies mid-session and both sides unwind to ErrSessionAborted.
func TestRunOnFaultyDisconnectAborts(t *testing.T) {
	base := runtime.NumGoroutine()
	top := testTopology(t, 8, 4)
	coord, player := chatter(50)
	faulty := transport.Faulty{
		Inner: transport.Chan{},
		Spec:  transport.FaultSpec{Seed: 17, Disconnect: 0.05, DeadlineMS: 5000},
	}
	_, err := RunOn(context.Background(), top.WithTransport(faulty), coord, player)
	if !errors.Is(err, ErrSessionAborted) {
		t.Fatalf("RunOn with injected disconnects: %v, want ErrSessionAborted", err)
	}
	waitGoroutines(t, base)
}

// TestRunOnCancelMidGather pins that canceling a session while the
// coordinator is parked in AskAll's receives — players deliberately never
// reply — unwinds every goroutine, on the in-process transport and on
// sockets.
func TestRunOnCancelMidGather(t *testing.T) {
	for _, d := range testDialers() {
		t.Run(d.Name(), func(t *testing.T) {
			base := runtime.NumGoroutine()
			top := testTopology(t, 8, 4)
			ctx, cancel := context.WithCancel(context.Background())
			gathering := make(chan struct{})
			coord := func(ctx context.Context, c *Coordinator) error {
				_, err := c.AskAll(ctx, Ack())
				return err
			}
			player := func(ctx context.Context, p *Player) error {
				if _, err := p.Recv(ctx); err != nil {
					return err
				}
				// AskAll sends in player order, so once the last player
				// has its request the coordinator is done sending.
				if p.ID == p.K-1 {
					close(gathering)
				}
				<-ctx.Done() // never reply
				return fmt.Errorf("%w: %v", ErrCanceled, ctx.Err())
			}
			done := make(chan error, 1)
			go func() {
				_, err := RunOn(ctx, top.WithTransport(d), coord, player)
				done <- err
			}()
			<-gathering
			time.Sleep(5 * time.Millisecond) // let AskAll park in Recv
			cancel()
			select {
			case err := <-done:
				if !errors.Is(err, ErrCanceled) {
					t.Fatalf("canceled session returned %v, want ErrCanceled", err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("cancel did not unwind the session")
			}
			waitGoroutines(t, base)
		})
	}
}
