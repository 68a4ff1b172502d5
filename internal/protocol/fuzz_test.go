package protocol

import (
	"errors"
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
