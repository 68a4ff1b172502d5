// Package xrand implements the shared-randomness assumption of the
// coordinator model.
//
// The paper assumes the players and the coordinator share a public random
// string and exploit it explicitly: all parties must agree — without
// communicating — on random permutations of the vertex set, on random vertex
// subsets sampled i.i.d. with probability p, and on per-protocol random
// streams. We realize this with a root seed from which keyed substreams are
// derived deterministically by tag: two parties holding the same (seed, tag)
// derive bit-identical randomness, which is exactly the shared-randomness
// model (and makes every experiment reproducible).
//
// A key is the first 8 bytes, read little-endian, of
// SHA-256(seed‖0x02‖tag), where seed is the 32-byte root New hashes from
// the 64-bit seed. Keys of many sub-experiments come from one such key by
// Key.Child, one splitmix64 step each: the degree estimator's word w of
// experiments hashes under Shared.Key("approx/<tag>/<mode>/<v>/<round>")
// .Child(64w+t), t < j, so a round costs one SHA-256 however many it runs.
//
// Point queries are O(1): Key.Rank gives each element a pseudo-random rank
// inducing a uniform permutation, and Key.Bernoulli answers "is element x in
// the p-sample?" without materializing the sample. Both are what the
// protocols need — e.g. SampleUniformFromB̃ᵢ only compares ranks of vertices
// each player locally knows. At p = 2^-j, bit b of the AND of j Hash words
// under distinct keys is j fair coins, set with probability exactly 2^-j
// independently across bits and elements (Knuth & Yao, 1976).
package xrand

import (
	"crypto/sha256"
	"encoding/binary"
	"math/rand"
)

// Shared is a source of shared randomness: a root seed plus deterministic
// tagged derivation. It is immutable and safe for concurrent use; the
// streams it hands out are not.
type Shared struct {
	seed [32]byte
}

// New returns a Shared randomness source derived from a 64-bit seed.
func New(seed uint64) *Shared {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], seed)
	s := &Shared{seed: sha256.Sum256(b[:])}
	return s
}

// Derive returns a new Shared source for a sub-experiment, keyed by tag.
// Derive(t1).Derive(t2) differs from Derive(t2).Derive(t1).
func (s *Shared) Derive(tag string) *Shared {
	h := sha256.New()
	h.Write(s.seed[:])
	h.Write([]byte{0x01}) // domain-separate Derive from Key
	h.Write([]byte(tag))
	var out Shared
	copy(out.seed[:], h.Sum(nil))
	return &out
}

// Key derives a 64-bit hashing key for the given tag. Identical (seed, tag)
// pairs yield identical keys on every party.
func (s *Shared) Key(tag string) Key {
	h := sha256.New()
	h.Write(s.seed[:])
	h.Write([]byte{0x02})
	h.Write([]byte(tag))
	sum := h.Sum(nil)
	return Key(binary.LittleEndian.Uint64(sum[:8]))
}

// Stream returns a math/rand stream seeded deterministically by tag. Each
// call returns an independent stream positioned at the start.
func (s *Shared) Stream(tag string) *rand.Rand {
	return rand.New(rand.NewSource(int64(s.Key(tag))))
}

// Perm returns a uniformly random permutation of [0,n) determined by tag.
// All parties calling Perm with the same tag obtain the same permutation.
func (s *Shared) Perm(tag string, n int) []int {
	return s.Stream(tag).Perm(n)
}

// Key is a 64-bit key for stateless point-query randomness. All methods are
// pure functions of (key, x), so any party holding the key evaluates them
// identically.
type Key uint64

// Hash returns a pseudo-random 64-bit value for element x under the key,
// using a splitmix64-style finalizer. It behaves like a fixed random
// function [0,2⁶⁴) → [0,2⁶⁴) for protocol purposes.
func (k Key) Hash(x uint64) uint64 {
	z := uint64(k) + 0x9e3779b97f4a7c15*(x+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Child derives the key of sub-experiment i from k with one splitmix64
// step: Child(i) is Key(Hash(i)). A key passed to Child is used for
// nothing else, so its children need no separation from its Hash values.
// Child is injective in i: i ↦ k + γ·(i+1) is injective for the odd
// constant γ, and the finalizer is a bijection on 64-bit words.
func (k Key) Child(i uint64) Key { return Key(k.Hash(i)) }

// Rank returns the pseudo-random rank of element x, inducing a uniform
// random order on any set of distinct elements (ties are impossible in
// practice and broken by x deterministically via the hash input).
func (k Key) Rank(x uint64) uint64 { return k.Hash(x) }

// Before reports whether x precedes y in the random order induced by the
// key, breaking hash ties by element id so the order is total.
func (k Key) Before(x, y uint64) bool {
	hx, hy := k.Rank(x), k.Rank(y)
	if hx != hy {
		return hx < hy
	}
	return x < y
}

// Uniform01 maps element x to a uniform value in [0,1).
func (k Key) Uniform01(x uint64) float64 {
	return float64(k.Hash(x)>>11) / float64(1<<53)
}

// Bernoulli reports whether element x falls in the i.i.d. p-sample under
// the key. The events {Bernoulli(x,p)} are independent across x and the
// sample is a deterministic function of (key, x, p), so all parties agree on
// the sampled set without communication.
func (k Key) Bernoulli(x uint64, p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return k.Uniform01(x) < p
}

// Reservoir maintains a uniform k-sample over a stream of elements using
// reservoir sampling. The zero value is not usable; use NewReservoir.
type Reservoir struct {
	rng  *rand.Rand
	k    int
	seen int
	buf  []int
}

// NewReservoir returns a reservoir holding a uniform sample of size at most
// k over the elements offered to Offer.
func NewReservoir(rng *rand.Rand, k int) *Reservoir {
	if k < 0 {
		k = 0
	}
	return &Reservoir{rng: rng, k: k, buf: make([]int, 0, k)}
}

// Offer presents element x to the reservoir.
func (r *Reservoir) Offer(x int) {
	r.seen++
	if len(r.buf) < r.k {
		r.buf = append(r.buf, x)
		return
	}
	if j := r.rng.Intn(r.seen); j < r.k {
		r.buf[j] = x
	}
}

// Sample returns a copy of the current sample.
func (r *Reservoir) Sample() []int {
	out := make([]int, len(r.buf))
	copy(out, r.buf)
	return out
}
