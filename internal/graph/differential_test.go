// Differential property suite for the adaptive triangle kernels: every
// scenario-registry family is built small enough for a naive O(n³)
// reference, then the bitset (shadows forced everywhere), sparse
// (shadows disabled), and default-threshold paths must all agree with
// each other and with the naive answers — counts, per-edge apexes, and
// vee matchings. Lives in an external test package so it can import the
// scenario registry without a cycle.
package graph_test

import (
	"math/rand"
	"testing"

	"tricomm/internal/graph"
	"tricomm/internal/scenario"
)

// diffSpecs downsizes every registry family so the naive counter is
// affordable. The suite fails when a family is missing, so new families
// cannot dodge the differential check.
var diffSpecs = map[string]scenario.Spec{
	"er":                 {N: 48, P: 0.2},
	"random":             {N: 48, D: 6},
	"bipartite":          {N: 48, D: 5},
	"far":                {N: 64, D: 8, Eps: 0.2},
	"dense-core":         {N: 48, Hubs: 3, Pairs: 5},
	"bucket-stress":      {N: 64, Levels: 2, Hubs: 2, TriLevel: 1},
	"hidden-block":       {N: 64, A: 5, D: 3},
	"disjoint-triangles": {N: 48, T: 7},
	"tripartite":         {N: 36, P: 0.25},
	"complete":           {N: 16},
	"cycle":              {N: 24},
	"star":               {N: 24},
	"behrend":            {M: 9},
	"chung-lu":           {N: 64, D: 6, Alpha: 2.5},
	"sbm":                {N: 64, Blocks: 4, PIn: 0.35, POut: 0.06},
	"behrend-blowup":     {M: 5, Blowup: 3},
	"dup-adversary":      {N: 64, D: 7, Eps: 0.2, K: 4, Dup: 0.5},
}

// naiveCount counts triangles by exhaustive triple enumeration.
func naiveCount(g *graph.Graph) int64 {
	n := g.N()
	var count int64
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if !g.HasEdge(i, j) {
				continue
			}
			for k := j + 1; k < n; k++ {
				if g.HasEdge(i, k) && g.HasEdge(j, k) {
					count++
				}
			}
		}
	}
	return count
}

// naiveApex returns the smallest common neighbor of e's endpoints by
// scanning the whole vertex set — the HasTriangleOn contract.
func naiveApex(g *graph.Graph, e graph.Edge) (int, bool) {
	for w := 0; w < g.N(); w++ {
		if w != e.U && w != e.V && g.HasEdge(e.U, w) && g.HasEdge(e.V, w) {
			return w, true
		}
	}
	return -1, false
}

// naiveVeeCountAt replays the greedy neighborhood matching with a plain
// map and per-pair HasEdge probes — the pre-bitset reference semantics.
func naiveVeeCountAt(g *graph.Graph, v int) int {
	nbrs := g.Neighbors(v)
	used := map[int]bool{}
	count := 0
	for i, u := range nbrs {
		if used[int(u)] {
			continue
		}
		for _, w := range nbrs[i+1:] {
			if used[int(w)] || !g.HasEdge(int(u), int(w)) {
				continue
			}
			used[int(u)] = true
			used[int(w)] = true
			count++
			break
		}
	}
	return count
}

// buildAt rebuilds the family instance with the given dense floor. The
// same seed always yields the same edge set, so the three builds are the
// same graph under different kernel strategies.
func buildAt(t *testing.T, sp scenario.Spec, seed int64, floor int) *graph.Graph {
	t.Helper()
	old := graph.DenseDegreeFloor
	graph.DenseDegreeFloor = floor
	defer func() { graph.DenseDegreeFloor = old }()
	inst, err := scenario.Build(sp, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	return inst.G
}

func TestKernelsDifferentialAcrossFamilies(t *testing.T) {
	for _, f := range scenario.Families() {
		sp, ok := diffSpecs[f.Name]
		if !ok {
			t.Fatalf("family %s has no differential spec; add one", f.Name)
		}
		sp.Family = f.Name
		t.Run(f.Name, func(t *testing.T) {
			for seed := int64(1); seed <= 2; seed++ {
				sparse := buildAt(t, sp, seed, -1) // merge path only
				dense := buildAt(t, sp, seed, 1)   // shadows everywhere
				def := buildAt(t, sp, seed, 16)    // production heuristic
				want := naiveCount(sparse)
				for _, g := range []*graph.Graph{sparse, dense, def} {
					if got := g.CountTriangles(); got != want {
						t.Fatalf("seed %d: CountTriangles %d != naive %d", seed, got, want)
					}
					if got := g.CountTrianglesN(4); got != want {
						t.Fatalf("seed %d: CountTrianglesN %d != naive %d", seed, got, want)
					}
				}
				// Per-edge apexes: all paths must return the same smallest
				// common neighbor the naive scan finds.
				sparse.VisitEdges(func(e graph.Edge) bool {
					wantApex, wantOk := naiveApex(sparse, e)
					for _, g := range []*graph.Graph{sparse, dense, def} {
						apex, ok := g.HasTriangleOn(e)
						if ok != wantOk || apex != wantApex {
							t.Fatalf("seed %d edge %v: apex (%d,%v) != naive (%d,%v)",
								seed, e, apex, ok, wantApex, wantOk)
						}
					}
					return true
				})
				// Vee matchings: identical to the map-based greedy reference
				// on every path.
				for v := 0; v < sparse.N(); v++ {
					wantVees := naiveVeeCountAt(sparse, v)
					for _, g := range []*graph.Graph{sparse, dense, def} {
						if got := g.DisjointVeeCountAt(v); got != wantVees {
							t.Fatalf("seed %d vertex %d: vees %d != naive %d",
								seed, v, got, wantVees)
						}
					}
				}
			}
		})
	}
}
