package runner

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tricomm/internal/graph"
	"tricomm/internal/partition"
	"tricomm/internal/protocol"
)

func TestMapOrdered(t *testing.T) {
	for _, jobs := range []int{1, 2, 8, 100} {
		out, err := Map(context.Background(), jobs, 50, func(_ context.Context, i int) (int, error) {
			return i * i, nil
		})
		if err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("jobs=%d: out[%d] = %d, want %d", jobs, i, v, i*i)
			}
		}
	}
}

func TestMapEmpty(t *testing.T) {
	out, err := Map(context.Background(), 4, 0, func(_ context.Context, i int) (int, error) {
		t.Fatal("fn called for empty map")
		return 0, nil
	})
	if err != nil || len(out) != 0 {
		t.Fatalf("empty map: out=%v err=%v", out, err)
	}
	if _, err := Map(context.Background(), 4, -1, func(_ context.Context, i int) (int, error) {
		return 0, nil
	}); err == nil {
		t.Fatal("negative count should error")
	}
}

func TestMapFirstErrorCancels(t *testing.T) {
	boom := errors.New("boom")
	var ran atomic.Int64
	_, err := Map(context.Background(), 4, 1000, func(ctx context.Context, i int) (int, error) {
		ran.Add(1)
		if i == 3 {
			return 0, boom
		}
		return i, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if n := ran.Load(); n == 1000 {
		t.Fatalf("cancellation did not stop the pool (all %d trials ran)", n)
	}
}

func TestMapParentCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	var once atomic.Bool
	done := make(chan error, 1)
	go func() {
		_, err := Map(ctx, 2, 10_000, func(ctx context.Context, i int) (int, error) {
			if once.CompareAndSwap(false, true) {
				close(started)
			}
			select {
			case <-ctx.Done():
			case <-time.After(time.Millisecond):
			}
			return i, nil
		})
		done <- err
	}()
	<-started
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Map did not return after cancellation")
	}
}

func TestJobsClamp(t *testing.T) {
	if Jobs(0) < 1 || Jobs(-3) < 1 {
		t.Fatal("Jobs must clamp non-positive to >= 1")
	}
	if Jobs(7) != 7 {
		t.Fatal("Jobs must pass positive values through")
	}
}

func TestTrialSeed(t *testing.T) {
	if TrialSeed(1, 0) != 1_000_003 {
		t.Fatalf("TrialSeed(1,0) = %d", TrialSeed(1, 0))
	}
	if TrialSeed(1, 2) != 1_000_003+2*7919 {
		t.Fatalf("TrialSeed(1,2) = %d", TrialSeed(1, 2))
	}
}

// TestPlanDeterministicAcrossJobs is the heart of the determinism
// contract: the same plan run with 1 worker and with 8 workers yields
// deeply equal results, trial by trial.
func TestPlanDeterministicAcrossJobs(t *testing.T) {
	plan := Plan{
		Trials: 6,
		Seed:   func(trial int) uint64 { return TrialSeed(42, trial) },
		Gen: func(rng *rand.Rand) *graph.Graph {
			return graph.FarWithDegree(graph.FarParams{N: 128, D: 6, Eps: 0.25}, rng).G
		},
		Partitioner: partition.Disjoint{},
		K:           3,
		Testers: []func(g *graph.Graph, trial int) Tester{
			func(g *graph.Graph, trial int) Tester {
				return protocol.SimOblivious{Eps: 0.25, Delta: 0.1,
					Tag: fmt.Sprintf("det/%d", trial)}
			},
			func(g *graph.Graph, trial int) Tester {
				return protocol.Unrestricted{Eps: 0.25, AvgDegree: g.AvgDegree(),
					Tag: fmt.Sprintf("detu/%d", trial)}
			},
		},
	}
	seqs, err := RunPlans(context.Background(), 1, []Plan{plan})
	if err != nil {
		t.Fatal(err)
	}
	pars, err := RunPlans(context.Background(), 8, []Plan{plan})
	if err != nil {
		t.Fatal(err)
	}
	seq, par := seqs[0], pars[0]
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("plan results differ across worker counts:\nseq: %+v\npar: %+v", seq, par)
	}
	if len(seq) != plan.Trials || len(seq[0]) != len(plan.Testers) {
		t.Fatalf("result shape %dx%d, want %dx%d", len(seq), len(seq[0]), plan.Trials, len(plan.Testers))
	}
}

// TestArenaRandMatchesFresh pins the arena's reseed-in-place contract:
// Arena.Rand(seed) must reproduce rand.New(rand.NewSource(seed)) exactly,
// including across interleaved reseeds — the property the determinism
// contract relies on when workers reuse one generator across trials.
func TestArenaRandMatchesFresh(t *testing.T) {
	a := NewArena()
	for _, seed := range []int64{1, 42, -7, 1 << 40} {
		got := a.Rand(seed)
		want := rand.New(rand.NewSource(seed))
		for i := 0; i < 100; i++ {
			if g, w := got.Int63(), want.Int63(); g != w {
				t.Fatalf("seed %d draw %d: %d != %d", seed, i, g, w)
			}
		}
		// Interleave a different seed, then return: still exact.
		a.Rand(seed + 1).Int63()
		got = a.Rand(seed)
		want = rand.New(rand.NewSource(seed))
		if g, w := got.Float64(), want.Float64(); g != w {
			t.Fatalf("seed %d after reseed: %v != %v", seed, g, w)
		}
	}
}

// TestMapArenaPerWorker checks every worker observes its own arena.
func TestMapArenaPerWorker(t *testing.T) {
	var mu sync.Mutex
	arenas := map[*Arena]bool{}
	_, err := MapArena(context.Background(), 4, 64, func(_ context.Context, a *Arena, i int) (int, error) {
		if a == nil {
			t.Error("nil arena")
		}
		mu.Lock()
		arenas[a] = true
		mu.Unlock()
		return i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(arenas) == 0 || len(arenas) > 4 {
		t.Fatalf("saw %d arenas, want between 1 and 4", len(arenas))
	}
}
