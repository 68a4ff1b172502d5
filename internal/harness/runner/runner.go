// Package runner is the shared trial-execution runtime behind the
// experiment harness: experiments declare what each trial does (an
// instance generator, a partitioner, tester constructors — or an
// arbitrary per-index body) and the runner fans the trials out over a
// bounded worker pool with context cancellation.
//
// Determinism contract: every trial is a pure function of its index —
// its seed is derived from (base seed, trial index) alone, never from
// execution order — and results are collected into a slice addressed by
// index. Aggregation (means, fits) then folds the slice in index order,
// so the numbers an experiment reports are bit-identical regardless of
// the worker count or the scheduler's interleaving. `-jobs 1` and
// `-jobs 64` produce the same bytes.
//
// Each worker owns a scratch Arena reused across every trial it
// executes — most importantly the ~5 KB lagged-Fibonacci math/rand state,
// which used to be allocated from cold once per trial. Arena reuse is
// invisible to the contract above: a reseeded source produces exactly the
// sequence a fresh one would.
package runner

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"

	"tricomm/internal/comm"
	"tricomm/internal/graph"
	"tricomm/internal/partition"
	"tricomm/internal/protocol"
	"tricomm/internal/xrand"
)

// Jobs normalizes a worker-count request: values ≤ 0 mean GOMAXPROCS.
func Jobs(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// TrialSeed derives the canonical per-trial seed used by the sweep
// experiments. The constants are load-bearing: they are the seed
// derivation the pre-runner harness used, so tables regenerated through
// the runner are bit-identical to the historical sequential ones.
func TrialSeed(base uint64, trial int) uint64 {
	return base*1_000_003 + uint64(trial)*7919
}

// Arena is the per-worker scratch a Map/MapArena worker reuses across
// every trial it runs. It is never shared between goroutines, so no
// synchronization is needed; trial outputs must not retain references
// into it.
type Arena struct {
	rng *rand.Rand
}

// NewArena returns a fresh arena (exported for callers that run trial
// bodies outside the pool, e.g. tests).
func NewArena() *Arena {
	return &Arena{rng: rand.New(rand.NewSource(1))}
}

// Rand reseeds the arena's reusable generator and returns it. The
// returned *rand.Rand produces exactly the sequence
// rand.New(rand.NewSource(seed)) would, without re-allocating the
// generator state; it is valid until the next Rand call. Seeding goes
// through Rand.Seed — not the Source directly — so the Read() byte
// buffer is reset too and no state leaks across trials.
func (a *Arena) Rand(seed int64) *rand.Rand {
	a.rng.Seed(seed)
	return a.rng
}

// Map runs fn(ctx, i) for every i in [0, n) over a pool of `jobs`
// workers and returns the results in index order. The first error
// cancels the remaining work and is returned; a canceled parent context
// surfaces as its ctx.Err(). fn must be safe for concurrent invocation
// and must depend only on its index (not on call order) for the
// determinism contract to hold.
func Map[T any](ctx context.Context, jobs, n int, fn func(ctx context.Context, i int) (T, error)) ([]T, error) {
	return MapArena(ctx, jobs, n, func(ctx context.Context, _ *Arena, i int) (T, error) {
		return fn(ctx, i)
	})
}

// MapArena is Map with a per-worker scratch Arena handed to fn. The arena
// is owned by the calling worker for the duration of fn; fn must not
// leak state that aliases it into its result.
func MapArena[T any](ctx context.Context, jobs, n int, fn func(ctx context.Context, a *Arena, i int) (T, error)) ([]T, error) {
	if n < 0 {
		return nil, fmt.Errorf("runner: negative trial count %d", n)
	}
	out := make([]T, n)
	if n == 0 {
		return out, ctx.Err()
	}
	jobs = Jobs(jobs)
	if jobs > n {
		jobs = n
	}
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
	)
	next.Store(-1)
	fail := func(err error) {
		errOnce.Do(func() {
			firstErr = err
			cancel()
		})
	}
	for w := 0; w < jobs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			arena := NewArena()
			for {
				i := int(next.Add(1))
				if i >= n {
					return
				}
				if err := cctx.Err(); err != nil {
					fail(ctx.Err())
					return
				}
				v, err := fn(cctx, arena, i)
				if err != nil {
					fail(err)
					return
				}
				out[i] = v
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return out, nil
}

// Tester is a protocol bound to its tunables, runnable over a reusable
// topology (the shape all the protocol structs satisfy).
type Tester interface {
	Name() string
	RunOn(ctx context.Context, top *comm.Topology) (protocol.Result, error)
}

// Plan declares one sweep point's trials in the harness's canonical
// shape: draw an instance, split it once, and run every tester over the
// shared topology so per-player views are built once per trial instead
// of once per tester per trial.
type Plan struct {
	// Trials is the repetition count.
	Trials int
	// Seed derives the trial's seed; it must be a pure function of the
	// trial index. Every other per-trial random object (instance rng,
	// shared randomness) is derived from it.
	Seed func(trial int) uint64
	// Gen draws the trial's instance from the trial rng.
	Gen func(rng *rand.Rand) *graph.Graph
	// Partitioner splits the instance among K players.
	Partitioner partition.Partitioner
	// K is the player count.
	K int
	// Testers construct the protocols to run on the trial's shared
	// topology, in order.
	Testers []func(g *graph.Graph, trial int) Tester
	// IntraWorkers is the one-round referees' triangle-search width
	// (≤ 0 defers to TRICOMM_INTRA_WORKERS; see Topology.WithIntraWorkers).
	// Results are bit-identical at every width, so it composes freely
	// with trial-level Workers.
	IntraWorkers int
}

// TrialResult is one tester's outcome on one trial.
type TrialResult struct {
	// Bits is the run's total communication.
	Bits int64
	// MaxPlayerBits is the largest per-player channel traffic.
	MaxPlayerBits int64
	// Rounds is the run's round count.
	Rounds int64
	// Found reports whether the run exhibited a triangle.
	Found bool
	// Phases is the protocol-level per-phase bit attribution (empty when
	// the protocol declares no phases).
	Phases protocol.Phases
}

// runTrialInto executes one trial — draw, split, build the shared
// topology, run every tester on it — writing results into row, a
// preallocated slice of len(p.Testers) cells.
func (p Plan) runTrialInto(ctx context.Context, a *Arena, trial int, row []TrialResult) error {
	seed := p.Seed(trial)
	rng := a.Rand(int64(seed))
	g := p.Gen(rng)
	shared := xrand.New(seed)
	part := p.Partitioner.Split(g, p.K, shared)
	top, err := comm.NewTopology(g.N(), part.Inputs, shared)
	if err != nil {
		return fmt.Errorf("trial %d: %w", trial, err)
	}
	if p.IntraWorkers > 0 {
		top = top.WithIntraWorkers(p.IntraWorkers)
	}
	for i, mk := range p.Testers {
		res, rerr := mk(g, trial).RunOn(ctx, top)
		if rerr != nil {
			return fmt.Errorf("trial %d: %w", trial, rerr)
		}
		row[i] = TrialResult{
			Bits:          res.Stats.TotalBits,
			MaxPlayerBits: res.Stats.MaxPlayerBits(),
			Rounds:        res.Stats.Rounds,
			Found:         res.Found(),
			Phases:        res.Phases,
		}
	}
	return nil
}

// RunPlans executes several plans — typically one per sweep point — by
// flattening every (plan, trial) pair onto ONE shared worker pool, so
// total in-flight work never exceeds `jobs` no matter how many points a
// sweep has (nested pools would multiply to jobs² workers and thrash
// the scheduler). Results are indexed [plan][trial][tester]; the
// determinism contract of Map applies unchanged. Every result cell lives
// in one flat backing array sized up front.
func RunPlans(ctx context.Context, jobs int, plans []Plan) ([][][]TrialResult, error) {
	type coord struct {
		plan, trial int
		cells       []TrialResult // preallocated destination row
	}
	total := 0
	for _, p := range plans {
		total += p.Trials * len(p.Testers)
	}
	backing := make([]TrialResult, total)
	var coords []coord
	off := 0
	for pi, p := range plans {
		w := len(p.Testers)
		for trial := 0; trial < p.Trials; trial++ {
			coords = append(coords, coord{pi, trial, backing[off : off+w]})
			off += w
		}
	}
	cells, err := MapArena(ctx, jobs, len(coords), func(ctx context.Context, a *Arena, i int) ([]TrialResult, error) {
		c := coords[i]
		if rerr := plans[c.plan].runTrialInto(ctx, a, c.trial, c.cells); rerr != nil {
			return nil, fmt.Errorf("plan %d: %w", c.plan, rerr)
		}
		return c.cells, nil
	})
	if err != nil {
		return nil, err
	}
	out := make([][][]TrialResult, len(plans))
	i := 0
	for pi, p := range plans {
		out[pi] = cells[i : i+p.Trials]
		i += p.Trials
	}
	return out, nil
}
