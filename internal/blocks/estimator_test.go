package blocks

import (
	"context"
	"fmt"
	"math/bits"
	"math/rand"
	"testing"

	"tricomm/internal/comm"
	"tricomm/internal/graph"
	"tricomm/internal/partition"
	"tricomm/internal/scenario"
	"tricomm/internal/stats"
	"tricomm/internal/wire"
	"tricomm/internal/xrand"
)

// guaranteeTally counts the estimates a guarantee test checked and those
// within a factor α, separately for one-vertex calls and for one batched
// ApproxDegrees call over the whole list.
type guaranteeTally struct {
	checked, single, batched int
}

// estimateBoth estimates every v in vs once with one-vertex calls and once
// with one batched call, and tallies the estimates within a factor α of
// g's degrees.
func (tl *guaranteeTally) estimateBoth(ctx context.Context, c *comm.Coordinator, g *graph.Graph, vs []int, prm ApproxParams) (single, batched int, err error) {
	within := func(v int, est float64) int {
		if d := float64(g.Degree(v)); est >= d/prm.Alpha && est <= prm.Alpha*d {
			return 1
		}
		return 0
	}
	for _, v := range vs {
		est, err := ApproxDegree(ctx, c, v, prm)
		if err != nil {
			return 0, 0, err
		}
		single += within(v, est)
	}
	ests, err := ApproxDegrees(ctx, c, vs, prm)
	if err != nil {
		return 0, 0, err
	}
	for x, v := range vs {
		batched += within(v, ests[x])
	}
	tl.checked += len(vs)
	tl.single += single
	tl.batched += batched
	return single, batched, nil
}

// check fails t when the Wilson 95% upper bound of either in-range
// fraction falls below 1−τ.
func (tl *guaranteeTally) check(t *testing.T, prm ApproxParams) {
	t.Helper()
	for _, c := range []struct {
		name   string
		within int
	}{{"one-vertex", tl.single}, {"batched", tl.batched}} {
		t.Logf("%s calls: %d/%d within α", c.name, c.within, tl.checked)
		if _, hi := stats.Wilson(c.within, tl.checked); hi < 1-prm.Tau {
			t.Errorf("%s calls: %d/%d estimates within a factor α = %v: Wilson upper bound %.3f < 1−τ = %.2f",
				c.name, c.within, tl.checked, prm.Alpha, hi, 1-prm.Tau)
		}
	}
	if tl.checked < 100 {
		t.Fatalf("only %d estimates checked", tl.checked)
	}
}

// TestApproxDegreeGuarantee checks Theorem 3.1 as a property: with
// DefaultApprox, ApproxDegree returns a value in [deg/α, α·deg] with
// probability at least 1−τ, with and without edge duplication, and so
// does each estimate of one ApproxDegrees call over the whole vertex
// list. It runs fixed-seed instances with a spread of degrees, takes up
// to four vertices per power-of-two degree class, and fails when the
// Wilson 95% upper bound of either in-range fraction falls below 1−τ,
// i.e. when the data rule out the guarantee.
func TestApproxDegreeGuarantee(t *testing.T) {
	stress := graph.BucketStress(graph.BucketStressParams{N: 2500, Levels: 5, HubsPer: 2, TriLevel: 1}, rand.New(rand.NewSource(31)))
	sp, err := scenario.Parse("chung-lu")
	if err != nil {
		t.Fatal(err)
	}
	chungLu, err := scenario.Build(sp, rand.New(rand.NewSource(32)))
	if err != nil {
		t.Fatal(err)
	}
	prm := DefaultApprox()
	var tally guaranteeTally
	for _, inst := range []struct {
		name string
		g    *graph.Graph
	}{{"bucket-stress", stress}, {"chung-lu", chungLu.G}} {
		vs := degreeSpread(inst.g, 4)
		for _, pt := range []partition.Partitioner{partition.Disjoint{}, partition.Duplicate{Q: 0.5}} {
			for _, k := range []int{2, 6} {
				runCoord(t, inst.g, pt, k, 33, func(ctx context.Context, c *comm.Coordinator) error {
					single, batched, err := tally.estimateBoth(ctx, c, inst.g, vs, prm)
					t.Logf("%s, %s, k=%d: %d/%d within α one at a time, %d batched", inst.name, pt.Name(), k, single, len(vs), batched)
					return err
				})
			}
		}
	}
	tally.check(t, prm)
}

// degreeSpread returns up to per vertices of each power-of-two degree
// class of g, skipping isolated vertices, in vertex order.
func degreeSpread(g *graph.Graph, per int) []int {
	taken := map[int]int{}
	var vs []int
	for v := 0; v < g.N(); v++ {
		class := bits.Len(uint(g.Degree(v)))
		if class > 0 && taken[class] < per {
			taken[class]++
			vs = append(vs, v)
		}
	}
	return vs
}

// TestApproxDegreeGuaranteeRegistry is TestApproxDegreeGuarantee over
// every registered scenario family at its defaults: the family's
// prescribed players when it has them, otherwise Disjoint and
// Duplicate{Q: 0.5} at k ∈ {2, 6}. The same Wilson rule applies to the
// pooled one-vertex estimates and to the pooled batched ones.
func TestApproxDegreeGuaranteeRegistry(t *testing.T) {
	prm := DefaultApprox()
	var tally guaranteeTally
	for i, name := range scenario.Names() {
		sp, err := scenario.Parse(name)
		if err != nil {
			t.Fatal(err)
		}
		inst, err := scenario.Build(sp, rand.New(rand.NewSource(int64(40+i))))
		if err != nil {
			t.Fatal(err)
		}
		g, vs := inst.G, degreeSpread(inst.G, 4)
		shared := xrand.New(uint64(40 + i))
		type split struct {
			name   string
			inputs [][]wire.Edge
		}
		splits := []split{{"prescribed", inst.Players}}
		if inst.Players == nil {
			splits = nil
			for _, pt := range []partition.Partitioner{partition.Disjoint{}, partition.Duplicate{Q: 0.5}} {
				for _, k := range []int{2, 6} {
					splits = append(splits, split{fmt.Sprintf("%s, k=%d", pt.Name(), k), pt.Split(g, k, shared).Inputs})
				}
			}
		}
		for _, sp := range splits {
			_, err := comm.RunOn(context.Background(), newTop(t, g.N(), sp.inputs, shared), func(ctx context.Context, c *comm.Coordinator) error {
				single, batched, err := tally.estimateBoth(ctx, c, g, vs, prm)
				t.Logf("%s, %s: %d/%d within α one at a time, %d batched", name, sp.name, single, len(vs), batched)
				return err
			}, Serve(testRun))
			if err != nil {
				t.Fatalf("%s, %s: %v", name, sp.name, err)
			}
		}
	}
	tally.check(t, prm)
}
