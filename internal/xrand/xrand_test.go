package xrand

import (
	"math"
	"math/rand"
	"testing"
)

// MinRank returns the element of elems with the smallest rank under the
// key, or (-1, false) if elems is empty. This is the shared-permutation
// primitive: all parties computing MinRank over sets whose union is S agree
// on the overall minimum of S by exchanging only their local minima.
func (k Key) MinRank(elems []int) (int, bool) {
	if len(elems) == 0 {
		return -1, false
	}
	best := elems[0]
	for _, e := range elems[1:] {
		if k.Before(uint64(e), uint64(best)) {
			best = e
		}
	}
	return best, true
}

func TestDeterminismAcrossParties(t *testing.T) {
	// Two "parties" constructing Shared from the same seed must agree on
	// every derived object.
	a, b := New(42), New(42)
	if a.Key("perm") != b.Key("perm") {
		t.Fatal("keys differ for same (seed, tag)")
	}
	pa, pb := a.Stream("order").Perm(100), b.Stream("order").Perm(100)
	for i := range pa {
		if pa[i] != pb[i] {
			t.Fatalf("stream permutations differ at %d", i)
		}
	}
	sa := a.Stream("s").Uint64()
	sb := b.Stream("s").Uint64()
	if sa != sb {
		t.Fatal("streams differ")
	}
}

func TestTagSeparation(t *testing.T) {
	s := New(1)
	if s.Key("a") == s.Key("b") {
		t.Fatal("distinct tags produced equal keys")
	}
	if s.Derive("x").Key("a") == s.Key("a") {
		t.Fatal("Derive did not change the key space")
	}
	if s.Derive("x").Derive("y").Key("a") == s.Derive("y").Derive("x").Key("a") {
		t.Fatal("Derive is order-insensitive")
	}
}

func TestSeedSeparation(t *testing.T) {
	if New(1).Key("t") == New(2).Key("t") {
		t.Fatal("different seeds produced equal keys")
	}
}

func TestChild(t *testing.T) {
	for _, tag := range []string{"a", "approx/t/1/2/3", ""} {
		base := New(9).Key(tag)
		if base.Child(5) != New(9).Key(tag).Child(5) {
			t.Fatalf("tag %q: Child is not deterministic", tag)
		}
		const n = 100000
		seen := make(map[Key]uint64, n)
		for i := uint64(0); i < n; i++ {
			c := base.Child(i)
			if j, dup := seen[c]; dup {
				t.Fatalf("tag %q: Child(%d) == Child(%d)", tag, i, j)
			}
			seen[c] = i
		}
	}
}

func TestBeforeIsTotalOrder(t *testing.T) {
	k := New(9).Key("order")
	// Antisymmetry and totality on a sample.
	for x := uint64(0); x < 50; x++ {
		for y := uint64(0); y < 50; y++ {
			if x == y {
				if k.Before(x, y) {
					t.Fatalf("Before(%d,%d) on equal elements", x, y)
				}
				continue
			}
			if k.Before(x, y) == k.Before(y, x) {
				t.Fatalf("Before not antisymmetric for %d,%d", x, y)
			}
		}
	}
}

func TestMinRankConsistentAcrossPartitions(t *testing.T) {
	// The shared-permutation primitive: min over a union equals min of the
	// parties' local minima.
	k := New(5).Key("rank")
	all := make([]int, 200)
	for i := range all {
		all[i] = i
	}
	globalMin, ok := k.MinRank(all)
	if !ok {
		t.Fatal("MinRank on nonempty set returned !ok")
	}
	// Split into 3 parts with overlap.
	parts := [][]int{all[:100], all[50:150], all[120:]}
	var locals []int
	for _, p := range parts {
		m, ok := k.MinRank(p)
		if !ok {
			t.Fatal("local MinRank failed")
		}
		locals = append(locals, m)
	}
	combined, _ := k.MinRank(locals)
	if combined != globalMin {
		t.Fatalf("combined min %d != global min %d", combined, globalMin)
	}
}

func TestMinRankEmpty(t *testing.T) {
	k := New(1).Key("t")
	if _, ok := k.MinRank(nil); ok {
		t.Fatal("MinRank(nil) returned ok")
	}
}

func TestMinRankUniformity(t *testing.T) {
	// Over many keys, each of 8 elements should be the minimum about 1/8 of
	// the time.
	const elems = 8
	const trials = 8000
	counts := make([]int, elems)
	set := []int{0, 1, 2, 3, 4, 5, 6, 7}
	for i := 0; i < trials; i++ {
		k := New(uint64(i)).Key("uniform")
		m, _ := k.MinRank(set)
		counts[m]++
	}
	want := float64(trials) / elems
	for v, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("element %d was min %d times, want ~%.0f", v, c, want)
		}
	}
}

func TestBernoulliEdgeCases(t *testing.T) {
	k := New(3).Key("b")
	if k.Bernoulli(7, 0) {
		t.Fatal("Bernoulli(p=0) returned true")
	}
	if !k.Bernoulli(7, 1) {
		t.Fatal("Bernoulli(p=1) returned false")
	}
	if k.Bernoulli(7, -0.5) {
		t.Fatal("Bernoulli(p<0) returned true")
	}
	if !k.Bernoulli(7, 1.5) {
		t.Fatal("Bernoulli(p>1) returned false")
	}
}

// mulInverse returns a's inverse modulo 2⁶⁴ for odd a: Newton's step
// doubles the correct low bits, and a·a ≡ 1 (mod 8) starts at three.
func mulInverse(a uint64) uint64 {
	inv := a
	for i := 0; i < 5; i++ {
		inv *= 2 - a*inv
	}
	return inv
}

// unshift inverts y = z ^ (z >> s).
func unshift(y uint64, s uint) uint64 {
	z := y
	for i := s; i < 64; i += s {
		z ^= y >> i
	}
	return z
}

// preimage returns the element x with k.Hash(x) == h. Hash is a bijection
// (an affine map with an odd multiplier, then splitmix64's invertible
// finalizer), so a test can place an element at any hash value.
func preimage(k Key, h uint64) uint64 {
	z := unshift(h, 31)
	z = unshift(z*mulInverse(0x94d049bb133111eb), 27)
	z = unshift(z*mulInverse(0xbf58476d1ce4e5b9), 30)
	return (z-uint64(k))*mulInverse(0x9e3779b97f4a7c15) - 1
}

func TestSampleMatchesBernoulli(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 200000; i++ {
		k, x := Key(rng.Uint64()), rng.Uint64()
		p := rng.Float64()
		if i%2 == 1 { // small p, down to 2^-60
			p = math.Ldexp(p, -rng.Intn(60))
		}
		want := k.Bernoulli(x, p)
		if got := k.Hash(x)>>11 < threshold(p); got != want {
			t.Fatalf("key %#x x %d p %v: threshold says %v, Bernoulli %v", k, x, p, got, want)
		}
		if got := k.Sample(p).Has(x); got != want {
			t.Fatalf("key %#x x %d p %v: Sample.Has %v, Bernoulli %v", k, x, p, got, want)
		}
	}
}

func TestThresholdBoundaries(t *testing.T) {
	const all = uint64(1) << 53
	cases := []struct {
		name string
		p    float64
		t    uint64
	}{
		{"zero", 0, 0},
		{"smallest positive", math.SmallestNonzeroFloat64, 1},
		{"2^-53", math.Ldexp(1, -53), 1},
		{"3/128", 3.0 / 128, 3 << 46},
		{"1/2", 0.5, 1 << 52},
		{"1-2^-53", 1 - math.Ldexp(1, -53), all - 1},
		{"one", 1, all},
		{"negative", -0.5, 0},
		{"above one", 1.5, all},
		{"NaN", math.NaN(), 0},
		{"+Inf", math.Inf(1), all},
		{"-Inf", math.Inf(-1), 0},
	}
	rng := rand.New(rand.NewSource(9))
	for _, c := range cases {
		if got := threshold(c.p); got != c.t {
			t.Fatalf("%s: threshold %d, want %d", c.name, got, c.t)
		}
		// Elements whose m = Hash(x)>>11 sits at either side of the
		// threshold and at both ends of [0, 2^53).
		for _, m := range []uint64{0, 1, c.t - 1, c.t, c.t + 1, all - 1} {
			if m >= all {
				continue
			}
			k := Key(rng.Uint64())
			h := m<<11 | rng.Uint64()&(1<<11-1)
			x := preimage(k, h)
			if k.Hash(x) != h {
				t.Fatalf("preimage: Hash(%d) = %#x, want %#x", x, k.Hash(x), h)
			}
			want := m < c.t
			if got := k.Bernoulli(x, c.p); got != want {
				t.Errorf("%s, m = %d: Bernoulli %v, want %v", c.name, m, got, want)
			}
			if got := k.Sample(c.p).Has(x); got != want {
				t.Errorf("%s, m = %d: Sample.Has %v, want %v", c.name, m, got, want)
			}
		}
	}
}

func TestBernoulliRate(t *testing.T) {
	k := New(11).Key("rate")
	for _, p := range []float64{0.1, 0.5, 0.9} {
		const n = 200000
		count := 0
		for x := uint64(0); x < n; x++ {
			if k.Bernoulli(x, p) {
				count++
			}
		}
		got := float64(count) / n
		if math.Abs(got-p) > 0.01 {
			t.Errorf("p=%.2f: empirical rate %.4f", p, got)
		}
	}
}

func TestUniform01Range(t *testing.T) {
	k := New(23).Key("u")
	for x := uint64(0); x < 10000; x++ {
		u := k.Uniform01(x)
		if u < 0 || u >= 1 {
			t.Fatalf("Uniform01(%d) = %v out of [0,1)", x, u)
		}
	}
}

func TestReservoirUniform(t *testing.T) {
	// Sample 1 element from 10; each should win ~1/10 of the time.
	const trials = 10000
	counts := make([]int, 10)
	s := New(77)
	for i := 0; i < trials; i++ {
		r := NewReservoir(s.Derive("t").Stream(string(rune(i))), 1)
		for x := 0; x < 10; x++ {
			r.Offer(x)
		}
		counts[r.Sample()[0]]++
	}
	want := float64(trials) / 10
	for v, c := range counts {
		if math.Abs(float64(c)-want) > 6*math.Sqrt(want) {
			t.Errorf("element %d sampled %d times, want ~%.0f", v, c, want)
		}
	}
}

func TestReservoirSize(t *testing.T) {
	r := NewReservoir(New(1).Stream("r"), 5)
	for x := 0; x < 3; x++ {
		r.Offer(x)
	}
	if got := r.Sample(); len(got) != 3 {
		t.Fatalf("sample size %d, want 3", len(got))
	}
	for x := 3; x < 100; x++ {
		r.Offer(x)
	}
	if got := r.Sample(); len(got) != 5 {
		t.Fatalf("sample size %d, want 5", len(got))
	}
}
