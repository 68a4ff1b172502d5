package protocol

import (
	"errors"
	"runtime"
	"testing"

	"tricomm/internal/comm"
	"tricomm/internal/wire"
)

// FuzzReferee feeds arbitrary bits to both simultaneous referees: the
// plain edge-list referee of SimHigh, SimLow and ExactBaseline, and
// SimOblivious's per-instance one. Over a real network a CRC catches only
// random corruption, so these parsers are the trust boundary. The input
// is cut into k ∈ [1, 8] messages over n ∈ [0, 4096) vertices; each
// referee must return a result or an error wrapping a wire decode error,
// never panic.
func FuzzReferee(f *testing.F) {
	tri := []wire.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 0, V: 2}}
	ec := wire.NewEdgeCodec(16)
	var plain, obl wire.Writer
	if err := ec.PutEdgeList(&plain, tri); err != nil {
		f.Fatal(err)
	}
	obl.WriteUvarint(2)
	for i, es := range [][]wire.Edge{tri[:1], tri[1:]} {
		obl.WriteUvarint(uint64(3 + i)) // guess exponent
		if err := ec.PutEdgeList(&obl, es); err != nil {
			f.Fatal(err)
		}
	}
	var three []byte // one single-edge list per player, two bytes each
	for _, e := range tri {
		var w wire.Writer
		if err := ec.PutEdgeList(&w, []wire.Edge{e}); err != nil {
			f.Fatal(err)
		}
		three = append(three, w.Bytes()...)
	}
	f.Add(uint16(16), uint8(0), plain.Bytes())
	f.Add(uint16(16), uint8(0), obl.Bytes())
	f.Add(uint16(16), uint8(2), three)
	referees := []struct {
		name   string
		decode func(n int) func(comm.Msg) ([]wire.Edge, error)
	}{
		{"plain", decodeEdgeList},
		{"oblivious", decodeInstanceLists},
	}
	f.Fuzz(func(t *testing.T, n uint16, k uint8, data []byte) {
		nv, parts := int(n%4096), int(k%8)+1
		msgs := make([]comm.Msg, parts)
		for j := range msgs {
			var w wire.Writer
			w.WriteBytes(data[j*len(data)/parts : (j+1)*len(data)/parts])
			msgs[j] = comm.FromWriter(&w)
		}
		for _, ref := range referees {
			_, err := simRefereeResult(nv, msgs, ref.decode(nv), 1)
			if err != nil && !errors.Is(err, wire.ErrShortMessage) &&
				!errors.Is(err, wire.ErrVertexRange) && !errors.Is(err, wire.ErrOverflow) {
				t.Fatalf("%s referee: error is no wire decode error: %v", ref.name, err)
			}
		}
	})
}

// TestRefereeAllocationBound feeds each simultaneous referee k messages
// whose edge-list count (or, for SimOblivious, instance count) claims far
// more edges than the message holds, up to 2^40. Each must fail with a
// wire decode error and allocate at most c₁·(message bits) + c₂·n bytes:
// a decoder that trusted the count would allocate for every claimed edge.
func TestRefereeAllocationBound(t *testing.T) {
	const n, k = 4096, 4
	const c1, c2 = 64, 64 // bytes per message bit, bytes per vertex
	ec := wire.NewEdgeCodec(n)
	filler := make([]wire.Edge, 20)
	for i := range filler {
		filler[i] = wire.Edge{U: i, V: i + 1}
	}
	// list writes an edge list whose count claims `claim` edges but which
	// holds only the filler.
	list := func(w *wire.Writer, claim uint64) {
		w.WriteUvarint(claim)
		for _, e := range filler {
			if err := ec.Put(w, e); err != nil {
				t.Fatal(err)
			}
		}
	}
	cases := []struct {
		name   string
		decode func(n int) func(comm.Msg) ([]wire.Edge, error)
		write  func(w *wire.Writer, claim uint64)
	}{
		{"plain", decodeEdgeList, list},
		{"oblivious edge count", decodeInstanceLists, func(w *wire.Writer, claim uint64) {
			w.WriteUvarint(1) // one instance
			w.WriteUvarint(3) // its guess exponent
			list(w, claim)
		}},
		{"oblivious instance count", decodeInstanceLists, func(w *wire.Writer, claim uint64) {
			w.WriteUvarint(claim)
			list(w, 0)
		}},
	}
	for _, tc := range cases {
		for _, claim := range []uint64{1 << 22, 1 << 40} {
			msgs := make([]comm.Msg, k)
			bits := 0
			for j := range msgs {
				var w wire.Writer
				tc.write(&w, claim)
				msgs[j] = comm.FromWriter(&w)
				bits += msgs[j].Bits()
			}
			// The least growth of three runs: another goroutine's
			// allocation can only add to one reading.
			grew := ^uint64(0)
			for range 3 {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				_, err := simRefereeResult(n, msgs, tc.decode(n), 1)
				runtime.ReadMemStats(&after)
				grew = min(grew, after.TotalAlloc-before.TotalAlloc)
				if !errors.Is(err, wire.ErrShortMessage) && !errors.Is(err, wire.ErrVertexRange) {
					t.Fatalf("%s, claim %d: err = %v, want a wire decode error", tc.name, claim, err)
				}
			}
			if limit := uint64(c1*bits + c2*n); grew > limit {
				t.Errorf("%s, claim %d: allocated %d bytes for %d message bits at n = %d, above %d", tc.name, claim, grew, bits, n, limit)
			}
			t.Logf("%s, claim %d: %d bytes for %d message bits", tc.name, claim, grew, bits)
		}
	}
}
