// Package bitset provides word-packed bit rows and popcount intersection
// kernels — the dense-row counterpart to the CSR adjacency arrays in
// internal/graph. A row is a plain []uint64 (bit i of word i/64 is key
// i), so immutable adjacency shadows are flat slabs with zero per-row
// overhead, and intersections run at one popcount per 64 keys instead of
// one comparison per element.
//
// For mutable scratch the package provides Set, the repository's one
// pooled membership set over small integer keys: clearing is O(1) via
// per-word epoch stamps (a word whose stamp is stale reads as zero), and
// Get/Put recycle Sets through a pool so every worker goroutine gets warm
// backing arrays — the scratch-arena contract documented in DESIGN.md
// ("memory layout").
package bitset

import (
	"math/bits"
	"sync"
)

// Words returns the number of 64-bit words that hold n bits.
func Words(n int) int { return (n + 63) >> 6 }

// Mark sets bit i in the word-packed row.
func Mark(row []uint64, i int) { row[i>>6] |= 1 << (uint(i) & 63) }

// Test reports whether bit i is set in the word-packed row.
func Test(row []uint64, i int) bool { return row[i>>6]>>(uint(i)&63)&1 != 0 }

// wideWords is the row width (in 64-bit words, so 512 bits) above which
// the popcount kernels take the 8-word unrolled path. Below it the 4-way
// loop already covers most of the row and the wider unroll only adds
// branch overhead on the tail.
const wideWords = 8

// intersectCountWide is the 8-word unrolled inner block shared by
// IntersectCount and IntersectCountAbove: it consumes a[i:], b[i:] in
// blocks of eight words starting at i and returns (count, next index).
// Two independent accumulators keep the popcount chains out of a single
// serial dependency.
func intersectCountWide(a, b []uint64, i, n int) (int, int) {
	c0, c1 := 0, 0
	for ; i+wideWords <= n; i += wideWords {
		c0 += bits.OnesCount64(a[i]&b[i]) +
			bits.OnesCount64(a[i+1]&b[i+1]) +
			bits.OnesCount64(a[i+2]&b[i+2]) +
			bits.OnesCount64(a[i+3]&b[i+3])
		c1 += bits.OnesCount64(a[i+4]&b[i+4]) +
			bits.OnesCount64(a[i+5]&b[i+5]) +
			bits.OnesCount64(a[i+6]&b[i+6]) +
			bits.OnesCount64(a[i+7]&b[i+7])
	}
	return c0 + c1, i
}

// IntersectCount returns |a ∩ b|: the number of positions set in both
// rows. Only the overlapping prefix min(len(a), len(b)) is scanned, so
// rows over the same key universe may be compared directly. Rows of at
// least 512 bits take an 8-word unrolled fast path.
func IntersectCount(a, b []uint64) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	count := 0
	i := 0
	if n >= wideWords {
		count, i = intersectCountWide(a, b, 0, n)
	}
	for ; i+4 <= n; i += 4 {
		count += bits.OnesCount64(a[i]&b[i]) +
			bits.OnesCount64(a[i+1]&b[i+1]) +
			bits.OnesCount64(a[i+2]&b[i+2]) +
			bits.OnesCount64(a[i+3]&b[i+3])
	}
	for ; i < n; i++ {
		count += bits.OnesCount64(a[i] & b[i])
	}
	return count
}

// IntersectCountAbove returns |{i ∈ a ∩ b : i > lo}|. Pass lo = -1 for
// the full intersection. Like IntersectCount, suffixes of at least 512
// bits past the masked first word take the 8-word unrolled path.
func IntersectCountAbove(a, b []uint64, lo int) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	start := lo + 1
	if start < 0 {
		start = 0
	}
	w := start >> 6
	if w >= n {
		return 0
	}
	// First word: drop bits below start.
	count := bits.OnesCount64(a[w] & b[w] &^ (1<<(uint(start)&63) - 1))
	w++
	if n-w >= wideWords {
		var c int
		c, w = intersectCountWide(a, b, w, n)
		count += c
	}
	for ; w < n; w++ {
		count += bits.OnesCount64(a[w] & b[w])
	}
	return count
}

// IntersectVisitAbove calls fn for every position i ∈ a ∩ b with i > lo,
// in ascending order, stopping early if fn returns false. It reports
// whether the scan ran to completion.
func IntersectVisitAbove(a, b []uint64, lo int, fn func(i int) bool) bool {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	start := lo + 1
	if start < 0 {
		start = 0
	}
	w := start >> 6
	if w >= n {
		return true
	}
	m := a[w] & b[w] &^ (1<<(uint(start)&63) - 1)
	for {
		for m != 0 {
			i := w<<6 + bits.TrailingZeros64(m)
			if !fn(i) {
				return false
			}
			m &= m - 1
		}
		w++
		if w >= n {
			return true
		}
		m = a[w] & b[w]
	}
}

// FirstIntersect returns the smallest position set in both rows, or -1
// when the rows are disjoint.
func FirstIntersect(a, b []uint64) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for w := 0; w < n; w++ {
		if m := a[w] & b[w]; m != 0 {
			return w<<6 + bits.TrailingZeros64(m)
		}
	}
	return -1
}

// Set is a clearable bitset scratch over keys in [0, n) with O(1)
// clearing: each word carries an epoch stamp, and a word whose stamp is
// stale reads as zero. The zero value is empty; call Reset before use.
// Not safe for concurrent use — obtain one per goroutine via Get.
type Set struct {
	words []uint64
	stamp []uint32
	cur   uint32
}

// Reset prepares the set for keys in [0, n), clearing it in O(1) by
// bumping the epoch. Backing arrays are touched only on growth, or once
// every 2³² resets when the epoch wraps.
func (s *Set) Reset(n int) {
	s.cur++
	if s.cur == 0 {
		// Zero the full capacity, not just the current length: stale
		// stamps beyond len would otherwise survive the wrap and collide
		// with small post-wrap epochs after a later regrow-within-cap.
		full := s.stamp[:cap(s.stamp)]
		for i := range full {
			full[i] = 0
		}
		s.cur = 1
	}
	w := Words(n)
	if w <= cap(s.stamp) {
		s.stamp = s.stamp[:w]
		s.words = s.words[:w]
	} else {
		s.stamp = make([]uint32, w)
		s.words = make([]uint64, w)
	}
}

// Has reports whether i was added since the last Reset.
func (s *Set) Has(i int) bool {
	w := i >> 6
	return s.stamp[w] == s.cur && s.words[w]>>(uint(i)&63)&1 != 0
}

// Add marks i as a member.
func (s *Set) Add(i int) {
	w := i >> 6
	if s.stamp[w] != s.cur {
		s.stamp[w] = s.cur
		s.words[w] = 0
	}
	s.words[w] |= 1 << (uint(i) & 63)
}

// Remove clears i's membership.
func (s *Set) Remove(i int) {
	w := i >> 6
	if s.stamp[w] != s.cur {
		s.stamp[w] = s.cur
		s.words[w] = 0
	}
	s.words[w] &^= 1 << (uint(i) & 63)
}

// Word returns word w of the set's current contents (zero when the word
// is epoch-stale), for word-at-a-time intersection against immutable
// rows.
func (s *Set) Word(w int) uint64 {
	if s.stamp[w] != s.cur {
		return 0
	}
	return s.words[w]
}

// NumWords reports the word count the set was Reset for.
func (s *Set) NumWords() int { return len(s.words) }

var pool = sync.Pool{New: func() any { return new(Set) }}

// Get returns a pooled Set reset for keys in [0, n).
func Get(n int) *Set {
	s := pool.Get().(*Set)
	s.Reset(n)
	return s
}

// Put returns a Set to the pool for reuse. The caller must not use it
// afterwards.
func Put(s *Set) { pool.Put(s) }
