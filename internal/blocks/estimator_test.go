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

// TestApproxDegreeGuarantee checks Theorem 3.1 as a property: with
// DefaultApprox, ApproxDegree returns a value in [deg/α, α·deg] with
// probability at least 1−τ, with and without edge duplication. It runs
// fixed-seed instances with a spread of degrees, takes up to four
// vertices per power-of-two degree class, and fails when the Wilson 95%
// upper bound of the in-range fraction falls below 1−τ, i.e. when the
// data rule out the guarantee.
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
	var checked, within int
	for _, inst := range []struct {
		name string
		g    *graph.Graph
	}{{"bucket-stress", stress}, {"chung-lu", chungLu.G}} {
		vs := degreeSpread(inst.g, 4)
		for _, pt := range []partition.Partitioner{partition.Disjoint{}, partition.Duplicate{Q: 0.5}} {
			for _, k := range []int{2, 6} {
				in := 0
				runCoord(t, inst.g, pt, k, 33, func(ctx context.Context, c *comm.Coordinator) error {
					for _, v := range vs {
						est, err := ApproxDegree(ctx, c, v, prm)
						if err != nil {
							return err
						}
						if d := float64(inst.g.Degree(v)); est >= d/prm.Alpha && est <= prm.Alpha*d {
							in++
						}
					}
					return nil
				})
				t.Logf("%s, %s, k=%d: %d/%d within α", inst.name, pt.Name(), k, in, len(vs))
				checked += len(vs)
				within += in
			}
		}
	}
	if _, hi := stats.Wilson(within, checked); hi < 1-prm.Tau {
		t.Fatalf("%d/%d estimates within a factor α = %v: Wilson upper bound %.3f < 1−τ = %.2f",
			within, checked, prm.Alpha, hi, 1-prm.Tau)
	}
	if checked < 100 {
		t.Fatalf("only %d estimates checked", checked)
	}
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
// pooled estimates.
func TestApproxDegreeGuaranteeRegistry(t *testing.T) {
	prm := DefaultApprox()
	var checked, within int
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
			in := 0
			_, err := comm.RunOn(context.Background(), newTop(t, g.N(), sp.inputs, shared), func(ctx context.Context, c *comm.Coordinator) error {
				for _, v := range vs {
					est, err := ApproxDegree(ctx, c, v, prm)
					if err != nil {
						return err
					}
					if d := float64(g.Degree(v)); est >= d/prm.Alpha && est <= prm.Alpha*d {
						in++
					}
				}
				return nil
			}, Serve(testRun))
			if err != nil {
				t.Fatalf("%s, %s: %v", name, sp.name, err)
			}
			t.Logf("%s, %s: %d/%d within α", name, sp.name, in, len(vs))
			checked += len(vs)
			within += in
		}
	}
	t.Logf("%d/%d within α", within, checked)
	if _, hi := stats.Wilson(within, checked); hi < 1-prm.Tau {
		t.Fatalf("%d/%d estimates within a factor α = %v: Wilson upper bound %.3f < 1−τ = %.2f",
			within, checked, prm.Alpha, hi, 1-prm.Tau)
	}
	if checked < 100 {
		t.Fatalf("only %d estimates checked", checked)
	}
}
