package bucket

import (
	"math"
	"math/rand"
	"testing"

	"tricomm/internal/graph"
)

func TestIndexBoundaries(t *testing.T) {
	cases := []struct{ deg, want int }{
		{0, 0},
		{1, 1}, {2, 1},
		{3, 2}, {8, 2},
		{9, 3}, {26, 3},
		{27, 4},
	}
	for _, c := range cases {
		if got := Index(c.deg); got != c.want {
			t.Errorf("Index(%d) = %d, want %d", c.deg, got, c.want)
		}
	}
}

func TestIndexConsistentWithBounds(t *testing.T) {
	for deg := 1; deg < 10000; deg++ {
		i := Index(deg)
		if deg < DegMin(i) || deg >= DegMax(i) {
			t.Fatalf("deg %d: bucket %d has range [%d,%d)", deg, i, DegMin(i), DegMax(i))
		}
	}
}

func TestDegBounds(t *testing.T) {
	if DegMin(0) != 0 || DegMax(0) != 1 {
		t.Fatal("B0 bounds wrong")
	}
	if DegMin(1) != 1 || DegMax(1) != 3 {
		t.Fatal("B1 bounds wrong")
	}
	if DegMin(4) != 27 || DegMax(4) != 81 {
		t.Fatal("B4 bounds wrong")
	}
}

func TestNumBuckets(t *testing.T) {
	for _, n := range []int{1, 2, 10, 100, 5000} {
		nb := NumBuckets(n)
		if Index(n-1) >= nb {
			t.Fatalf("n=%d: max degree bucket %d >= NumBuckets %d", n, Index(n-1), nb)
		}
	}
	if NumBuckets(1) != 1 {
		t.Fatal("NumBuckets(1) != 1")
	}
	// Fewer than log₃-ish buckets: paper says < log n + 2.
	if nb := NumBuckets(1 << 20); float64(nb) > math.Log2(1<<20)+2 {
		t.Fatalf("too many buckets: %d", nb)
	}
}

func TestPartitionCoversAllVertices(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := graph.ErdosRenyi(200, 0.05, rng)
	parts := Partition(g)
	seen := 0
	for i, vs := range parts {
		for _, v := range vs {
			if Index(g.Degree(v)) != i {
				t.Fatalf("vertex %d (deg %d) in bucket %d", v, g.Degree(v), i)
			}
			seen++
		}
	}
	if seen != g.N() {
		t.Fatalf("partition covers %d of %d vertices", seen, g.N())
	}
}

func TestFullVertexOnDenseCore(t *testing.T) {
	// Hubs in PlantedDenseCore have ALL incident edges in disjoint vees, so
	// they are full for any reasonable eps; leaf vertices source at most
	// one vee over 2 edges — also technically full — so check hubs are
	// detected and isolated vertices are not.
	rng := rand.New(rand.NewSource(2))
	p := graph.DenseCoreParams{N: 500, Hubs: 3, Pairs: 30}
	g := graph.PlantedDenseCore(p, rng)
	hubs := 0
	for v := 0; v < g.N(); v++ {
		if g.Degree(v) == 2*p.Pairs {
			if !IsFullVertex(g, v, 0.1) {
				t.Fatalf("hub %d not detected as full", v)
			}
			hubs++
		}
		if g.Degree(v) == 0 && IsFullVertex(g, v, 0.1) {
			t.Fatalf("isolated vertex %d marked full", v)
		}
	}
	if hubs != p.Hubs {
		t.Fatalf("found %d hubs, want %d", hubs, p.Hubs)
	}
}

func TestFullVertexRejectsTriangleFree(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := graph.RandomBipartite(100, 100, 0.1, rng)
	if vs := FullVertices(g, 0.3); len(vs) != 0 {
		t.Fatalf("bipartite graph has %d full vertices", len(vs))
	}
}

func TestObservation33AtLeastOneFullBucket(t *testing.T) {
	// Observation 3.3: an ε-far graph has at least one full bucket. Our
	// generators certify ε-farness, so full buckets must exist for the
	// certified eps (we test at the certified value, which accounts for the
	// greedy-vs-max slack in the vee families).
	rng := rand.New(rand.NewSource(4))
	cases := []*graph.Graph{
		graph.DisjointTriangles(300, 90, rng),
		graph.PlantedDenseCore(graph.DenseCoreParams{N: 800, Hubs: 4, Pairs: 40}, rng),
		graph.FarWithDegree(graph.FarParams{N: 600, D: 12, Eps: 0.2}, rng).G,
		graph.Complete(60),
	}
	for i, g := range cases {
		if fb := FullBuckets(g, g.FarnessLowerBound()); len(fb) == 0 {
			t.Errorf("case %d: no full bucket (eps=%v)", i, g.FarnessLowerBound())
		}
	}
}

func TestFullBucketsEmptyForTriangleFree(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := graph.RandomBipartite(150, 150, 0.05, rng)
	if fb := FullBuckets(g, 0.1); len(fb) != 0 {
		t.Fatalf("triangle-free graph has full buckets %v", fb)
	}
}

func TestVeeMassMatchesPerVertexCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	g := graph.ErdosRenyi(80, 0.2, rng)
	mass := VeeMass(g)
	var fromMass float64
	for _, m := range mass {
		fromMass += m
	}
	var direct float64
	for v := 0; v < g.N(); v++ {
		direct += float64(g.DisjointVeeCountAt(v))
	}
	if fromMass != direct {
		t.Fatalf("mass %v != direct %v", fromMass, direct)
	}
}

func TestDegreeWindowLemma312(t *testing.T) {
	// Lemma 3.12: the lowest full bucket Bmin has dl ≤ d⁻(Bmin) and
	// d⁻(Bmin) ≤ dh. Verify the window brackets every full bucket's lower
	// bound on an ε-far instance (dl is a lower bound for Bmin only, so we
	// check the window is sane and contains Bmin = lowest full bucket).
	rng := rand.New(rand.NewSource(7))
	fg := graph.FarWithDegree(graph.FarParams{N: 900, D: 10, Eps: 0.25}, rng)
	g := fg.G
	eps := fg.CertEps
	dl, dh := DegreeWindow(g.N(), g.AvgDegree(), eps)
	if dl <= 0 || dh <= dl {
		t.Fatalf("degenerate window [%v, %v]", dl, dh)
	}
	full := FullBuckets(g, eps)
	if len(full) == 0 {
		t.Fatal("no full bucket")
	}
	bmin := full[0]
	if float64(DegMin(bmin)) > dh {
		t.Fatalf("Bmin=%d with d⁻=%d above dh=%v", bmin, DegMin(bmin), dh)
	}
	// dl is a valid lower bound up to the greedy-vee slack; allow factor 4.
	if float64(DegMax(bmin)) < dl/4 {
		t.Fatalf("Bmin=%d with d⁺=%d far below dl=%v", bmin, DegMax(bmin), dl)
	}
}

func TestBucketRange(t *testing.T) {
	lo, hi := BucketRange(1000, 2.0, 100.0)
	if lo < 1 || hi < lo {
		t.Fatalf("range [%d,%d]", lo, hi)
	}
	// Degree 2 is in bucket lo's range or below; degree 100 within hi.
	if DegMax(hi) < 100 {
		t.Fatalf("hi bucket %d tops out at %d < 100", hi, DegMax(hi))
	}
	if DegMin(lo) > 2 {
		t.Fatalf("lo bucket %d starts at %d > 2", lo, DegMin(lo))
	}
	// Window above all possible degrees is clamped.
	_, hi2 := BucketRange(100, 1, 1e12)
	if hi2 >= NumBuckets(100) {
		t.Fatalf("hi not clamped: %d", hi2)
	}
}

func TestCandidatesPigeonhole(t *testing.T) {
	// Bᵢ ⊆ ⋃_j B̃ᵢʲ: every true bucket member is a candidate for at least
	// one player, for every partition of the edges.
	rng := rand.New(rand.NewSource(8))
	g := graph.ErdosRenyi(120, 0.1, rng)
	const k = 5
	// Simple deterministic split for the test: edge e to player (e.U+e.V) mod k.
	views := make([]*graph.Builder, k)
	for j := range views {
		views[j] = graph.NewBuilder(g.N())
	}
	g.VisitEdges(func(e graph.Edge) bool {
		views[(e.U+e.V)%k].AddEdge(e.U, e.V)
		return true
	})
	local := make([]*graph.Graph, k)
	for j := range views {
		local[j] = views[j].Build()
	}
	parts := Partition(g)
	for i, members := range parts {
		if i == 0 {
			continue // isolated vertices have no candidates anywhere
		}
		inCand := map[int]bool{}
		for j := 0; j < k; j++ {
			for _, v := range Candidates(local[j], i, k) {
				inCand[v] = true
			}
		}
		for _, v := range members {
			if !inCand[v] {
				t.Fatalf("bucket %d member %d (deg %d) not in any B̃: local degs %v",
					i, v, g.Degree(v), localDegrees(local, v))
			}
		}
	}
}

func localDegrees(views []*graph.Graph, v int) []int {
	out := make([]int, len(views))
	for j, g := range views {
		out[j] = g.Degree(v)
	}
	return out
}

func TestCandidatesDegreeFloor(t *testing.T) {
	// B̃ᵢʲ ⊆ N_k(Bᵢ): every candidate has true degree ≥ d⁻(Bᵢ)/k. Here the
	// local view IS the whole graph (k=1 player), so candidates are exactly
	// the bucket plus nothing below.
	rng := rand.New(rand.NewSource(9))
	g := graph.ErdosRenyi(100, 0.15, rng)
	for i := 1; i < NumBuckets(g.N()); i++ {
		for _, v := range Candidates(g, i, 1) {
			if g.Degree(v) < DegMin(i) || g.Degree(v) > DegMax(i) {
				t.Fatalf("k=1 candidate %d deg %d outside [%d,%d]",
					v, g.Degree(v), DegMin(i), DegMax(i))
			}
		}
	}
}

func TestCandidatesPanicsOnBadK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("k=0 did not panic")
		}
	}()
	Candidates(graph.Complete(4), 1, 0)
}
