package bitset

import (
	"math/rand"
	"testing"
)

// randRow draws a row of nw words with the given bit density.
func randRow(rng *rand.Rand, nw int, density float64) []uint64 {
	row := make([]uint64, nw)
	for i := 0; i < nw*64; i++ {
		if rng.Float64() < density {
			Mark(row, i)
		}
	}
	return row
}

func TestWords(t *testing.T) {
	cases := []struct{ n, want int }{
		{0, 0}, {1, 1}, {63, 1}, {64, 1}, {65, 2}, {128, 2}, {129, 3},
	}
	for _, c := range cases {
		if got := Words(c.n); got != c.want {
			t.Errorf("Words(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestMarkTest(t *testing.T) {
	row := make([]uint64, Words(200))
	keys := []int{0, 1, 63, 64, 65, 127, 128, 199}
	for _, k := range keys {
		Mark(row, k)
	}
	set := map[int]bool{}
	for _, k := range keys {
		set[k] = true
	}
	for i := 0; i < 200; i++ {
		if Test(row, i) != set[i] {
			t.Fatalf("Test(%d) = %v, want %v", i, Test(row, i), set[i])
		}
	}
}

func TestIntersectCountOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		nw := 1 + rng.Intn(8)
		a := randRow(rng, nw, 0.3)
		b := randRow(rng, nw, 0.3)
		want := 0
		for i := 0; i < nw*64; i++ {
			if Test(a, i) && Test(b, i) {
				want++
			}
		}
		if got := IntersectCount(a, b); got != want {
			t.Fatalf("trial %d: IntersectCount = %d, want %d", trial, got, want)
		}
		// Above every cut point, counts and visit order must agree with a
		// scalar scan.
		for _, lo := range []int{-1, 0, 1, 62, 63, 64, nw*64 - 2, nw*64 - 1} {
			wantAbove := 0
			var wantOrder []int
			for i := lo + 1; i < nw*64; i++ {
				if i >= 0 && Test(a, i) && Test(b, i) {
					wantAbove++
					wantOrder = append(wantOrder, i)
				}
			}
			if got := IntersectCountAbove(a, b, lo); got != wantAbove {
				t.Fatalf("IntersectCountAbove(lo=%d) = %d, want %d", lo, got, wantAbove)
			}
			var gotOrder []int
			done := IntersectVisitAbove(a, b, lo, func(i int) bool {
				gotOrder = append(gotOrder, i)
				return true
			})
			if !done {
				t.Fatalf("IntersectVisitAbove(lo=%d) stopped early", lo)
			}
			if len(gotOrder) != len(wantOrder) {
				t.Fatalf("visit(lo=%d): %v, want %v", lo, gotOrder, wantOrder)
			}
			for i := range gotOrder {
				if gotOrder[i] != wantOrder[i] {
					t.Fatalf("visit(lo=%d): %v, want %v", lo, gotOrder, wantOrder)
				}
			}
		}
	}
}

// TestIntersectCountWideOracle pins the 8-word unrolled fast path
// (rows ≥ 512 bits) to the scalar oracle, including widths that leave a
// 4-way block and a sub-4 tail after the wide blocks, uneven row
// lengths, and every first-word cut position for the Above variant.
func TestIntersectCountWideOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, nw := range []int{8, 9, 11, 12, 15, 16, 17, 31, 33, 64} {
		for trial := 0; trial < 20; trial++ {
			a := randRow(rng, nw, 0.4)
			bw := nw
			if trial%3 == 1 {
				bw = nw - 1 - rng.Intn(nw/2) // uneven: prefix rule applies
			}
			b := randRow(rng, bw, 0.4)
			lim := nw * 64
			if bw*64 < lim {
				lim = bw * 64
			}
			want := 0
			for i := 0; i < lim; i++ {
				if Test(a, i) && Test(b, i) {
					want++
				}
			}
			if got := IntersectCount(a, b); got != want {
				t.Fatalf("nw=%d bw=%d trial %d: IntersectCount = %d, want %d", nw, bw, trial, got, want)
			}
			for _, lo := range []int{-1, 0, 62, 63, 64, 65, 127, 511, 512, lim - 2, lim - 1} {
				wantAbove := 0
				for i := lo + 1; i < lim; i++ {
					if i >= 0 && Test(a, i) && Test(b, i) {
						wantAbove++
					}
				}
				if got := IntersectCountAbove(a, b, lo); got != wantAbove {
					t.Fatalf("nw=%d bw=%d: IntersectCountAbove(lo=%d) = %d, want %d", nw, bw, lo, got, wantAbove)
				}
			}
		}
	}
}

func TestIntersectVisitEarlyStop(t *testing.T) {
	a := make([]uint64, 2)
	b := make([]uint64, 2)
	for _, k := range []int{3, 70, 100} {
		Mark(a, k)
		Mark(b, k)
	}
	var seen []int
	done := IntersectVisitAbove(a, b, -1, func(i int) bool {
		seen = append(seen, i)
		return len(seen) < 2
	})
	if done {
		t.Fatal("expected early stop")
	}
	if len(seen) != 2 || seen[0] != 3 || seen[1] != 70 {
		t.Fatalf("seen = %v, want [3 70]", seen)
	}
}

func TestFirstIntersect(t *testing.T) {
	a := make([]uint64, 3)
	b := make([]uint64, 3)
	if got := FirstIntersect(a, b); got != -1 {
		t.Fatalf("empty FirstIntersect = %d, want -1", got)
	}
	Mark(a, 5)
	Mark(b, 6)
	if got := FirstIntersect(a, b); got != -1 {
		t.Fatalf("disjoint FirstIntersect = %d, want -1", got)
	}
	Mark(a, 130)
	Mark(b, 130)
	if got := FirstIntersect(a, b); got != 130 {
		t.Fatalf("FirstIntersect = %d, want 130", got)
	}
	Mark(a, 6)
	if got := FirstIntersect(a, b); got != 6 {
		t.Fatalf("FirstIntersect = %d, want 6", got)
	}
}

func TestSetBasics(t *testing.T) {
	s := Get(300)
	ref := map[int]bool{}
	rng := rand.New(rand.NewSource(7))
	for op := 0; op < 2000; op++ {
		k := rng.Intn(300)
		switch rng.Intn(3) {
		case 0:
			s.Add(k)
			ref[k] = true
		case 1:
			s.Remove(k)
			delete(ref, k)
		case 2:
			if s.Has(k) != ref[k] {
				t.Fatalf("op %d: Has(%d) = %v, want %v", op, k, s.Has(k), ref[k])
			}
		}
	}
	// Word must agree with Has bit-by-bit.
	for w := 0; w < s.NumWords(); w++ {
		word := s.Word(w)
		for b := 0; b < 64; b++ {
			k := w*64 + b
			if k >= 300 {
				break
			}
			if (word>>uint(b)&1 != 0) != ref[k] {
				t.Fatalf("Word(%d) bit %d disagrees with ref", w, b)
			}
		}
	}
	// Reset clears everything.
	s.Reset(300)
	for k := range ref {
		if s.Has(k) {
			t.Fatalf("Has(%d) true after Reset", k)
		}
	}
	// A pooled set carries no members from one Get to the next.
	for k := range ref {
		s.Add(k)
	}
	Put(s)
	s = Get(300)
	defer Put(s)
	for k := range ref {
		if s.Has(k) {
			t.Fatalf("Has(%d) true after Put and Get", k)
		}
	}
}

func TestSetEpochWrap(t *testing.T) {
	s := new(Set)
	s.Reset(128)
	s.Add(5)
	s.cur = ^uint32(0) // force wrap on next Reset
	s.stamp[0] = s.cur // keep key 5 visible at the forced epoch
	if !s.Has(5) {
		t.Fatal("setup: key 5 should be visible")
	}
	s.Reset(128)
	if s.cur != 1 {
		t.Fatalf("cur = %d after wrap, want 1", s.cur)
	}
	if s.Has(5) {
		t.Fatal("key 5 survived epoch wrap")
	}
	s.Add(7)
	if !s.Has(7) || s.Has(5) {
		t.Fatal("post-wrap membership wrong")
	}
}

func TestSetRegrow(t *testing.T) {
	s := new(Set)
	s.Reset(64)
	s.Add(3)
	s.Reset(1024) // grow
	if s.Has(3) {
		t.Fatal("key survived growth Reset")
	}
	s.Add(900)
	if !s.Has(900) {
		t.Fatal("Add after growth lost")
	}
	s.Reset(64) // shrink within capacity
	if s.NumWords() != 1 {
		t.Fatalf("NumWords = %d, want 1", s.NumWords())
	}
}

// FuzzIntersectCount cross-checks the popcount kernel against a map
// oracle built from the raw bytes.
func FuzzIntersectCount(f *testing.F) {
	f.Add([]byte{0xff, 0x00, 0x12}, []byte{0x0f, 0xf0})
	f.Add([]byte{}, []byte{1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Fuzz(func(t *testing.T, ab, bb []byte) {
		const maxBytes = 4096
		if len(ab) > maxBytes {
			ab = ab[:maxBytes]
		}
		if len(bb) > maxBytes {
			bb = bb[:maxBytes]
		}
		toRow := func(p []byte) []uint64 {
			row := make([]uint64, (len(p)+7)/8)
			for i, c := range p {
				row[i/8] |= uint64(c) << (uint(i%8) * 8)
			}
			return row
		}
		a, b := toRow(ab), toRow(bb)
		oracle := map[int]bool{}
		n := len(a) * 64
		if m := len(b) * 64; m < n {
			n = m
		}
		want := 0
		for i := 0; i < n; i++ {
			if Test(a, i) && Test(b, i) {
				oracle[i] = true
				want++
			}
		}
		if got := IntersectCount(a, b); got != want {
			t.Fatalf("IntersectCount = %d, oracle %d", got, want)
		}
		got := 0
		ok := IntersectVisitAbove(a, b, -1, func(i int) bool {
			if !oracle[i] {
				t.Fatalf("visit yielded %d, not in oracle", i)
			}
			got++
			return true
		})
		if !ok || got != want {
			t.Fatalf("visit count = %d (done=%v), oracle %d", got, ok, want)
		}
	})
}
