package wire

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestVertexCodecWidth(t *testing.T) {
	cases := []struct{ n, width int }{
		{2, 1}, {3, 2}, {16, 4}, {17, 5}, {1000, 10},
	}
	for _, c := range cases {
		vc := NewVertexCodec(c.n)
		if vc.Width() != c.width {
			t.Errorf("n=%d: width=%d, want %d", c.n, vc.Width(), c.width)
		}
	}
}

func TestVertexCodecRoundTrip(t *testing.T) {
	vc := NewVertexCodec(100)
	var w Writer
	for v := 0; v < 100; v++ {
		if err := vc.Put(&w, v); err != nil {
			t.Fatal(err)
		}
	}
	r := ReaderFor(&w)
	for v := 0; v < 100; v++ {
		got, err := vc.Get(r)
		if err != nil {
			t.Fatal(err)
		}
		if got != v {
			t.Fatalf("got %d, want %d", got, v)
		}
	}
}

func TestVertexCodecRange(t *testing.T) {
	vc := NewVertexCodec(10)
	var w Writer
	if err := vc.Put(&w, 10); !errors.Is(err, ErrVertexRange) {
		t.Fatalf("Put(10) err = %v, want ErrVertexRange", err)
	}
	if err := vc.Put(&w, -1); !errors.Is(err, ErrVertexRange) {
		t.Fatalf("Put(-1) err = %v, want ErrVertexRange", err)
	}
	// Decoding a raw value outside the universe must fail too.
	w.Reset()
	w.WriteUint(15, vc.Width()) // 15 >= 10
	if _, err := vc.Get(ReaderFor(&w)); !errors.Is(err, ErrVertexRange) {
		t.Fatalf("Get err = %v, want ErrVertexRange", err)
	}
}

func TestEdgeCanon(t *testing.T) {
	e := Edge{U: 5, V: 2}
	if got := e.Canon(); got != (Edge{U: 2, V: 5}) {
		t.Fatalf("Canon = %v", got)
	}
	if got := (Edge{U: 2, V: 5}).Canon(); got != (Edge{U: 2, V: 5}) {
		t.Fatalf("Canon of canonical = %v", got)
	}
}

func TestEdgeOther(t *testing.T) {
	e := Edge{U: 3, V: 9}
	if e.Other(3) != 9 || e.Other(9) != 3 {
		t.Fatal("Other returned wrong endpoint")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Other(non-endpoint) did not panic")
		}
	}()
	e.Other(4)
}

func TestEdgeCodecRoundTrip(t *testing.T) {
	ec := NewEdgeCodec(64)
	var w Writer
	edges := []Edge{{U: 0, V: 1}, {U: 63, V: 5}, {U: 30, V: 30}}
	for _, e := range edges {
		if err := ec.Put(&w, e); err != nil {
			t.Fatal(err)
		}
	}
	if w.BitLen() != len(edges)*ec.Width() {
		t.Fatalf("BitLen=%d, want %d", w.BitLen(), len(edges)*ec.Width())
	}
	r := ReaderFor(&w)
	for _, e := range edges {
		got, err := ec.Get(r)
		if err != nil {
			t.Fatal(err)
		}
		if got != e.Canon() {
			t.Fatalf("got %v, want %v", got, e.Canon())
		}
	}
}

func TestEdgeListRoundTripAndDeterminism(t *testing.T) {
	ec := NewEdgeCodec(32)
	edges := []Edge{{U: 9, V: 3}, {U: 1, V: 2}, {U: 7, V: 20}}
	shuffled := []Edge{{U: 7, V: 20}, {U: 3, V: 9}, {U: 2, V: 1}}

	var w1, w2 Writer
	if err := ec.PutEdgeList(&w1, edges); err != nil {
		t.Fatal(err)
	}
	if err := ec.PutEdgeList(&w2, shuffled); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(w1.Bytes(), w2.Bytes()) {
		t.Fatal("edge list encoding not order-independent")
	}

	got, err := ec.GetEdgeList(ReaderFor(&w1))
	if err != nil {
		t.Fatal(err)
	}
	want := []Edge{{U: 1, V: 2}, {U: 3, V: 9}, {U: 7, V: 20}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestEdgeListBitsMatchesEncoding(t *testing.T) {
	ec := NewEdgeCodec(100)
	for m := 0; m < 40; m++ {
		edges := make([]Edge, m)
		for i := range edges {
			edges[i] = Edge{U: i % 100, V: (i*7 + 1) % 100}
		}
		var w Writer
		if err := ec.PutEdgeList(&w, edges); err != nil {
			t.Fatal(err)
		}
		// An 8-bit count, then two 7-bit ids per edge.
		if want := 8 + m*2*7; w.BitLen() != want {
			t.Fatalf("m=%d: BitLen=%d, want %d", m, w.BitLen(), want)
		}
	}
}

func TestEdgeListTruncated(t *testing.T) {
	ec := NewEdgeCodec(32)
	// Each count claims more edges than follow; from 2^63 a count is
	// negative as an int64.
	for _, cnt := range []uint64{1000, 1 << 63, ^uint64(0)} {
		var w Writer
		w.WriteUvarint(cnt)
		if _, err := ec.GetEdgeList(ReaderFor(&w)); !errors.Is(err, ErrShortMessage) {
			t.Fatalf("count %d: err = %v, want ErrShortMessage", cnt, err)
		}
	}
}

func TestVertexListRoundTrip(t *testing.T) {
	vc := NewVertexCodec(50)
	var w Writer
	if err := vc.PutVertexList(&w, []int{9, 1, 30, 2}); err != nil {
		t.Fatal(err)
	}
	got, err := vc.GetVertexList(ReaderFor(&w))
	if err != nil {
		t.Fatal(err)
	}
	want := []int{1, 2, 9, 30}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestVertexListTruncated(t *testing.T) {
	vc := NewVertexCodec(32)
	for _, cnt := range []uint64{999, 1 << 63, ^uint64(0)} {
		var w Writer
		w.WriteUvarint(cnt)
		if _, err := vc.GetVertexList(ReaderFor(&w)); !errors.Is(err, ErrShortMessage) {
			t.Fatalf("count %d: err = %v, want ErrShortMessage", cnt, err)
		}
	}
}

func TestQuickEdgeListRoundTrip(t *testing.T) {
	const n = 256
	ec := NewEdgeCodec(n)
	f := func(seed int64, m uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		set := map[Edge]bool{}
		for i := 0; i < int(m); i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			set[Edge{U: u, V: v}.Canon()] = true
		}
		var edges []Edge
		for e := range set {
			edges = append(edges, e)
		}
		var w Writer
		if err := ec.PutEdgeList(&w, edges); err != nil {
			return false
		}
		got, err := ec.GetEdgeList(ReaderFor(&w))
		if err != nil {
			return false
		}
		if len(got) != len(edges) {
			return false
		}
		for _, e := range got {
			if !set[e] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
