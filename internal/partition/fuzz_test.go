package partition

import (
	"reflect"
	"testing"

	"tricomm/internal/graph"
	"tricomm/internal/wire"
	"tricomm/internal/xrand"
)

// fuzzGraph decodes a graph from fuzz bytes: consecutive byte pairs are
// (u, v) endpoints mod n; self-loops and duplicates are absorbed by the
// builder.
func fuzzGraph(n int, raw []byte) *graph.Graph {
	b := graph.NewBuilder(n)
	for i := 0; i+1 < len(raw); i += 2 {
		u, v := int(raw[i])%n, int(raw[i+1])%n
		if u != v {
			b.AddEdge(u, v)
		}
	}
	return b.Build()
}

// edgeCounts returns the multiset of canonical edges held across all
// players.
func edgeCounts(p *Partition) map[wire.Edge]int {
	counts := map[wire.Edge]int{}
	for _, in := range p.Inputs {
		for _, e := range in {
			counts[e.Canon()]++
		}
	}
	return counts
}

// sameSplit fails t unless got holds exactly want's player lists, in
// order, each allocated at its final length.
func sameSplit(t *testing.T, got, want *Partition) {
	t.Helper()
	if !reflect.DeepEqual(got.Inputs, want.Inputs) {
		t.Fatalf("%s: inputs differ from the one-pass reference", got.Scheme)
	}
	for j, in := range got.Inputs {
		if cap(in) != len(in) {
			t.Fatalf("%s: player %d list has cap %d, len %d", got.Scheme, j, cap(in), len(in))
		}
	}
}

// FuzzSplitConservation fuzzes the edge-conservation contract of every
// split scheme: Disjoint and ByVertex hold each graph edge exactly once
// across players; Duplicate covers each edge at least once (and never
// invents edges, so the union still equals the edge set); All hands
// every player the full edge set — k copies of each edge. Disjoint and
// Duplicate (at Q = 0, 0.5 and 1) must also equal their one-pass
// references byte for byte, with every list allocated at its final length.
func FuzzSplitConservation(f *testing.F) {
	f.Add(uint64(1), 16, 3, []byte{0, 1, 1, 2, 2, 0, 3, 4})
	f.Add(uint64(42), 5, 1, []byte{0, 1, 0, 1, 4, 3})
	f.Add(uint64(7), 64, 8, []byte{9, 20, 20, 9, 63, 0, 5, 5, 1, 2})
	f.Add(uint64(0), 2, 2, []byte{})
	// A stride-37 byte walk: 31 edges on 41 vertices among 6 players, so
	// some player's list grows past two and a short capacity shows.
	walk := make([]byte, 64)
	for i := range walk {
		walk[i] = byte(i * 37)
	}
	f.Add(uint64(3), 40, 5, walk)
	f.Fuzz(func(t *testing.T, seed uint64, n, k int, raw []byte) {
		if n < 1 {
			n = 1
		}
		n = n%64 + 1
		if k < 1 {
			k = 1
		}
		k = k%8 + 1
		g := fuzzGraph(n, raw)
		want := map[wire.Edge]int{}
		for _, e := range g.Edges() {
			want[e.Canon()] = 1
		}
		shared := xrand.New(seed)

		for _, exact := range []Partitioner{Disjoint{}, ByVertex{}} {
			p := exact.Split(g, k, shared)
			if p.K() != k {
				t.Fatalf("%s: %d players, want %d", exact.Name(), p.K(), k)
			}
			counts := edgeCounts(p)
			if len(counts) != len(want) {
				t.Fatalf("%s: holds %d distinct edges, graph has %d", exact.Name(), len(counts), len(want))
			}
			for e, c := range counts {
				if want[e] == 0 {
					t.Fatalf("%s: invented edge %v", exact.Name(), e)
				}
				if c != 1 {
					t.Fatalf("%s: edge %v held %d times, want exactly 1", exact.Name(), e, c)
				}
			}
			if err := p.Validate(g); err != nil {
				t.Fatalf("%s: %v", exact.Name(), err)
			}
		}

		sameSplit(t, Disjoint{}.Split(g, k, shared), refDisjointSplit(g, k, shared))
		for _, q := range []float64{0, 0.5, 1} {
			d := Duplicate{Q: q}
			sameSplit(t, d.Split(g, k, shared), refDuplicateSplit(d, g, k, shared))
		}

		dup := Duplicate{Q: 0.5}.Split(g, k, shared)
		counts := edgeCounts(dup)
		if len(counts) != len(want) {
			t.Fatalf("duplicate: holds %d distinct edges, graph has %d", len(counts), len(want))
		}
		for e, c := range counts {
			if want[e] == 0 {
				t.Fatalf("duplicate: invented edge %v", e)
			}
			if c < 1 || c > k {
				t.Fatalf("duplicate: edge %v held %d times, want 1..%d", e, c, k)
			}
		}
		if err := dup.Validate(g); err != nil {
			t.Fatalf("duplicate: %v", err)
		}

		all := All{}.Split(g, k, shared)
		counts = edgeCounts(all)
		for e := range want {
			if counts[e] != k {
				t.Fatalf("all: edge %v held %d times, want %d full copies", e, counts[e], k)
			}
		}
		if len(counts) != len(want) {
			t.Fatalf("all: holds %d distinct edges, graph has %d", len(counts), len(want))
		}
		if all.TotalHeld() != k*g.M() {
			t.Fatalf("all: TotalHeld %d, want %d", all.TotalHeld(), k*g.M())
		}
	})
}
