// Package bucket implements the degree-bucketing analysis of paper §3.2.
//
// Vertices are partitioned by degree into buckets of geometrically growing
// width: B₀ holds isolated vertices and, for i ≥ 1,
// Bᵢ = {v : 3^{i-1} ≤ deg(v) < 3^i}. The unrestricted protocol iterates
// over buckets searching for a *full* bucket — one whose vertices source
// many pairwise-disjoint triangle-vees — and inside it for *full* vertices,
// whose incident edges are rich in disjoint vees (Definitions 4 and 5).
//
// The package provides the player-local candidate sets
// B̃ᵢʲ = {v : d⁻(Bᵢ)/k ≤ d_j(v) ≤ d⁺(Bᵢ)} that the protocol actually
// samples from (§3.3), since no single player knows true degrees. The
// exact analysis view (Definitions 4 and 5) lives with the tests that
// check the protocol against it.
package bucket

import (
	"math"

	"tricomm/internal/graph"
	"tricomm/internal/parwork"
	"tricomm/internal/xrand"
)

// Index returns the bucket index of a vertex of the given degree: 0 for
// isolated vertices, otherwise the unique i ≥ 1 with 3^{i-1} ≤ deg < 3^i.
func Index(deg int) int {
	if deg <= 0 {
		return 0
	}
	i := 1
	for bound := 3; deg >= bound; bound *= 3 {
		i++
	}
	return i
}

// DegMin returns d⁻(Bᵢ), the minimal degree of bucket i (0 for B₀).
func DegMin(i int) int {
	if i <= 0 {
		return 0
	}
	return pow3(i - 1)
}

// DegMax returns d⁺(Bᵢ), the exclusive upper degree bound of bucket i
// (1 for B₀, i.e. only degree 0).
func DegMax(i int) int {
	if i <= 0 {
		return 1
	}
	return pow3(i)
}

// NumBuckets returns the number of buckets needed for an n-vertex graph
// (every possible degree < n falls below this index).
func NumBuckets(n int) int {
	if n <= 1 {
		return 1
	}
	return Index(n-1) + 1
}

func pow3(i int) int {
	v := 1
	for ; i > 0; i-- {
		v *= 3
	}
	return v
}

// logN returns log₂ n clamped below at 1, the paper's "log n" normalizer.
func logN(n int) float64 {
	l := math.Log2(float64(n))
	if l < 1 {
		return 1
	}
	return l
}

// DegreeWindow returns the degree range [dl, dh] the unrestricted protocol
// iterates over (Definitions 7–8): dl = eps·d/(2·log n) and
// dh = sqrt(n·d/eps), where d is the average degree of g. Buckets entirely
// outside this window can be skipped (Lemma 3.12 places Bmin inside it).
func DegreeWindow(n int, avgDegree, eps float64) (dl, dh float64) {
	dl = eps * avgDegree / (2 * logN(n))
	dh = math.Sqrt(float64(n) * avgDegree / eps)
	return dl, dh
}

// BucketRange returns the bucket indices [lo, hi] that intersect the
// degree window [dl, dh].
func BucketRange(n int, dl, dh float64) (lo, hi int) {
	lo = Index(int(math.Ceil(dl)))
	hi = Index(int(math.Floor(dh)))
	if max := NumBuckets(n) - 1; hi > max {
		hi = max
	}
	if lo < 1 {
		lo = 1
	}
	if lo > hi {
		lo = hi
	}
	return lo, hi
}

// minRankSerialBelow keeps MinRankCandidate serial for small universes,
// where a fan-out costs more than the scan.
const minRankSerialBelow = 1024

// MinRankCandidate returns key.MinRank(Candidates(view, i, k)) without
// materializing the candidate slice: one fused scan over the vertex
// range, fanned across up to workers goroutines. Before is a strict
// total order (hash rank with id tie-break), so taking chunk-local
// minima and folding them in chunk order yields exactly the serial
// scan's minimum at any worker count.
func MinRankCandidate(view *graph.Graph, i, k int, key xrand.Key, workers int) (int, bool) {
	if k < 1 {
		panic("bucket: MinRankCandidate requires k >= 1")
	}
	lo := float64(DegMin(i)) / float64(k)
	hi := DegMax(i)
	n := view.N()
	scan := func(vlo, vhi int) (int64, bool) {
		best, found := -1, false
		for v := vlo; v < vhi; v++ {
			dj := view.Degree(v)
			if dj > 0 && float64(dj) >= lo && dj <= hi {
				if !found || key.Before(uint64(v), uint64(best)) {
					best, found = v, true
				}
			}
		}
		return int64(best), found
	}
	if workers <= 1 || n < minRankSerialBelow {
		b, ok := scan(0, n)
		return int(b), ok
	}
	nc := parwork.NumChunks(workers, n)
	bests := make([]int64, nc)
	founds := make([]bool, nc)
	parwork.ForEach(workers, n, func(c, vlo, vhi int) {
		bests[c], founds[c] = scan(vlo, vhi)
	})
	best, found := -1, false
	for c := 0; c < nc; c++ {
		if !founds[c] {
			continue
		}
		if !found || key.Before(uint64(bests[c]), uint64(best)) {
			best, found = int(bests[c]), true
		}
	}
	return best, found
}
