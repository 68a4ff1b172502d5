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
// B̃ᵢʲ = {v : d⁻(Bᵢ)/k ≤ d_j(v) ≤ d⁺(Bᵢ)} (AppendMembers) that the protocol
// actually samples from (§3.3), since no single player knows true
// degrees, and the shared-order pick among them (First). The
// exact analysis view (Definitions 4 and 5) lives with the tests that
// check the protocol against it.
package bucket

import (
	"math"

	"tricomm/internal/graph"
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

// AppendMembers appends to dst, and returns, B̃ᵢʲ: the vertices player j
// can "reasonably suspect" belong to bucket i given only its local view
// (§3.3), those whose local degree d_j(v) satisfies
// d⁻(Bᵢ)/k ≤ d_j(v) ≤ d⁺(Bᵢ), in vertex order. By the pigeonhole
// argument, Bᵢ ⊆ ⋃_j B̃ᵢʲ, and each B̃ᵢʲ ⊆ N_k(Bᵢ) (vertices whose true
// degree is at least d⁻(Bᵢ)/k). Callers that list members often pass
// last time's list as dst[:0].
func AppendMembers(dst []int, view *graph.Graph, i, k int) []int {
	if k < 1 {
		panic("bucket: AppendMembers requires k >= 1")
	}
	lo := float64(DegMin(i)) / float64(k)
	hi := DegMax(i) // d⁺ is exclusive in bucket terms; the candidate test is ≤ 3^i per the paper
	for v := 0; v < view.N(); v++ {
		dj := view.Degree(v)
		if dj > 0 && float64(dj) >= lo && dj <= hi {
			dst = append(dst, v)
		}
	}
	return dst
}

// First returns the vertex of a non-empty list that comes first in key's
// random order: the least key.Rank, ties broken by id, as in
// xrand.Key.Before. Every member is ranked once.
func First(members []int, key xrand.Key) int {
	best := members[0]
	bestRank := key.Rank(uint64(best))
	for _, v := range members[1:] {
		if r := key.Rank(uint64(v)); r < bestRank || r == bestRank && v < best {
			best, bestRank = v, r
		}
	}
	return best
}
