package wire

import (
	"bytes"
	"errors"
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestWriterBitLen(t *testing.T) {
	var w Writer
	if w.BitLen() != 0 {
		t.Fatalf("empty writer BitLen = %d, want 0", w.BitLen())
	}
	w.WriteBit(1)
	w.WriteBit(0)
	w.WriteBit(1)
	if w.BitLen() != 3 {
		t.Fatalf("BitLen = %d, want 3", w.BitLen())
	}
	if got := len(w.Bytes()); got != 1 {
		t.Fatalf("Bytes len = %d, want 1", got)
	}
	// MSB-first: bits 101 -> 0b1010_0000.
	if w.Bytes()[0] != 0xa0 {
		t.Fatalf("Bytes[0] = %#x, want 0xa0", w.Bytes()[0])
	}
}

func TestBitRoundTrip(t *testing.T) {
	var w Writer
	pattern := []uint{1, 0, 0, 1, 1, 1, 0, 1, 0, 1, 1}
	for _, b := range pattern {
		w.WriteBit(b)
	}
	r := ReaderFor(&w)
	for i, want := range pattern {
		got, err := r.ReadBit()
		if err != nil {
			t.Fatalf("ReadBit %d: %v", i, err)
		}
		if got != want {
			t.Fatalf("bit %d = %d, want %d", i, got, want)
		}
	}
	if _, err := r.ReadBit(); !errors.Is(err, ErrShortMessage) {
		t.Fatalf("read past end: err = %v, want ErrShortMessage", err)
	}
}

func TestWriteUintWidths(t *testing.T) {
	for width := 0; width <= 64; width++ {
		var w Writer
		v := uint64(0xdeadbeefcafebabe)
		w.WriteUint(v, width)
		if w.BitLen() != width {
			t.Fatalf("width %d: BitLen = %d", width, w.BitLen())
		}
		r := ReaderFor(&w)
		got, err := r.ReadUint(width)
		if err != nil {
			t.Fatalf("width %d: %v", width, err)
		}
		want := v
		if width < 64 {
			want = v & ((1 << uint(width)) - 1)
		}
		if got != want {
			t.Fatalf("width %d: got %#x, want %#x", width, got, want)
		}
	}
}

func TestReadUintBadWidth(t *testing.T) {
	r := NewReader([]byte{0xff}, -1)
	if _, err := r.ReadUint(65); !errors.Is(err, ErrWidth) {
		t.Fatalf("ReadUint(65) err = %v, want ErrWidth", err)
	}
}

func TestUvarintRoundTrip(t *testing.T) {
	cases := []struct {
		v    uint64
		bits int
	}{{0, 8}, {1, 8}, {127, 8}, {128, 16}, {16383, 16}, {16384, 24}, {1 << 32, 40}, {1<<64 - 1, 80}}
	for _, tc := range cases {
		v := tc.v
		var w Writer
		w.WriteUvarint(v)
		if w.BitLen() != tc.bits {
			t.Fatalf("v=%d: BitLen=%d, want %d", v, w.BitLen(), tc.bits)
		}
		got, err := ReaderFor(&w).ReadUvarint()
		if err != nil {
			t.Fatalf("v=%d: %v", v, err)
		}
		if got != v {
			t.Fatalf("roundtrip %d -> %d", v, got)
		}
	}
}

func TestGammaRoundTrip(t *testing.T) {
	cases := []uint64{1, 2, 3, 4, 7, 8, 255, 1 << 20, 1<<63 - 1}
	for _, v := range cases {
		var w Writer
		w.WriteGamma(v)
		if want := 2*bits.Len64(v) - 1; w.BitLen() != want {
			t.Fatalf("v=%d: BitLen=%d, want %d", v, w.BitLen(), want)
		}
		got, err := ReaderFor(&w).ReadGamma()
		if err != nil {
			t.Fatalf("v=%d: %v", v, err)
		}
		if got != v {
			t.Fatalf("roundtrip %d -> %d", v, got)
		}
	}
}

func TestGammaZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("WriteGamma(0) did not panic")
		}
	}()
	var w Writer
	w.WriteGamma(0)
}

func TestQuickUvarintRoundTrip(t *testing.T) {
	f := func(v uint64) bool {
		var w Writer
		w.WriteUvarint(v)
		got, err := ReaderFor(&w).ReadUvarint()
		return err == nil && got == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickMixedRoundTrip(t *testing.T) {
	// Interleave heterogeneous writes and verify an exact roundtrip.
	f := func(a uint64, b bool, c uint16, d uint8) bool {
		var w Writer
		w.WriteUvarint(a)
		w.WriteBool(b)
		w.WriteUint(uint64(c), 16)
		w.WriteGamma(uint64(d) + 1)
		r := ReaderFor(&w)
		ga, err1 := r.ReadUvarint()
		gb, err2 := r.ReadBool()
		gc, err3 := r.ReadUint(16)
		gd, err4 := r.ReadGamma()
		if err1 != nil || err2 != nil || err3 != nil || err4 != nil {
			return false
		}
		return ga == a && gb == b && gc == uint64(c) && gd == uint64(d)+1 && r.Remaining() == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWriteBytesRoundTrip(t *testing.T) {
	var w Writer
	w.WriteBit(1) // force non-byte alignment
	payload := []byte{0x00, 0xff, 0x5a, 0x12}
	w.WriteBytes(payload)
	r := ReaderFor(&w)
	if _, err := r.ReadBit(); err != nil {
		t.Fatal(err)
	}
	got, err := r.ReadBytes(len(payload))
	if err != nil {
		t.Fatal(err)
	}
	for i := range payload {
		if got[i] != payload[i] {
			t.Fatalf("byte %d = %#x, want %#x", i, got[i], payload[i])
		}
	}
	// Reads past the end fail, including counts for which 8·n wraps.
	for _, n := range []int{1, 1 << 61} {
		if _, err := r.ReadBytes(n); !errors.Is(err, ErrShortMessage) {
			t.Fatalf("ReadBytes(%d) past the end: err = %v, want ErrShortMessage", n, err)
		}
	}
}

func TestBitsFor(t *testing.T) {
	cases := []struct{ n, want int }{
		{0, 0}, {1, 0}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {8, 3}, {9, 4},
		{1024, 10}, {1025, 11},
	}
	for _, c := range cases {
		if got := BitsFor(c.n); got != c.want {
			t.Errorf("BitsFor(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestReset(t *testing.T) {
	var w Writer
	w.WriteUvarint(12345)
	w.Reset()
	if w.BitLen() != 0 || len(w.Bytes()) != 0 {
		t.Fatalf("after Reset: BitLen=%d len=%d", w.BitLen(), len(w.Bytes()))
	}
	w.WriteBit(1)
	if w.Bytes()[0] != 0x80 {
		t.Fatalf("write after Reset produced %#x", w.Bytes()[0])
	}
}

func TestReadUvarintOverflow(t *testing.T) {
	var w Writer
	// 10 groups of all-ones with continuation bits: exceeds 64 bits.
	for i := 0; i < 10; i++ {
		w.WriteBit(1)
		w.WriteUint(0x7f, 7)
	}
	w.WriteBit(0)
	w.WriteUint(0x7f, 7)
	if _, err := ReaderFor(&w).ReadUvarint(); !errors.Is(err, ErrOverflow) {
		t.Fatalf("err = %v, want ErrOverflow", err)
	}
}

func TestFuzzLikeRandomSequences(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		var w Writer
		type op struct {
			kind  int
			v     uint64
			width int
		}
		var ops []op
		for i := 0; i < 50; i++ {
			o := op{kind: rng.Intn(3)}
			switch o.kind {
			case 0:
				o.v = rng.Uint64()
				o.width = rng.Intn(65)
				if o.width < 64 {
					o.v &= (1 << uint(o.width)) - 1
				}
				w.WriteUint(o.v, o.width)
			case 1:
				o.v = rng.Uint64() >> uint(rng.Intn(64))
				w.WriteUvarint(o.v)
			case 2:
				o.v = rng.Uint64()>>uint(rng.Intn(63)) + 1
				w.WriteGamma(o.v)
			}
			ops = append(ops, o)
		}
		r := ReaderFor(&w)
		for i, o := range ops {
			var got uint64
			var err error
			switch o.kind {
			case 0:
				got, err = r.ReadUint(o.width)
			case 1:
				got, err = r.ReadUvarint()
			case 2:
				got, err = r.ReadGamma()
			}
			if err != nil {
				t.Fatalf("trial %d op %d: %v", trial, i, err)
			}
			if got != o.v {
				t.Fatalf("trial %d op %d: got %d, want %d", trial, i, got, o.v)
			}
		}
		if r.Remaining() != 0 {
			t.Fatalf("trial %d: %d bits left over", trial, r.Remaining())
		}
	}
}

// refWriter encodes one bit at a time: the oracle for Writer's MSB-first
// layout.
type refWriter struct {
	buf  []byte
	nbit int
}

func (w *refWriter) bit(b uint) {
	if w.nbit>>3 == len(w.buf) {
		w.buf = append(w.buf, 0)
	}
	if b != 0 {
		w.buf[w.nbit>>3] |= 1 << (7 - uint(w.nbit&7))
	}
	w.nbit++
}

func (w *refWriter) uint(v uint64, width int) {
	for i := width - 1; i >= 0; i-- {
		w.bit(uint(v>>uint(i)) & 1)
	}
}

func (w *refWriter) uvarint(v uint64) {
	for {
		group := v & 0x7f
		v >>= 7
		if v != 0 {
			w.bit(1)
		} else {
			w.bit(0)
		}
		w.uint(group, 7)
		if v == 0 {
			return
		}
	}
}

func (w *refWriter) gamma(v uint64) {
	n := 64 - bits.LeadingZeros64(v)
	for i := 0; i < n-1; i++ {
		w.bit(0)
	}
	w.uint(v, n)
}

// refReadUint is the bit-at-a-time ReadUint of width bits at bit pos of
// the first nbit bits of buf.
func refReadUint(buf []byte, nbit, pos, width int) (uint64, error) {
	if nbit-pos < width {
		return 0, ErrShortMessage
	}
	var v uint64
	for i := pos; i < pos+width; i++ {
		v = v<<1 | uint64(buf[i>>3]>>(7-uint(i&7))&1)
	}
	return v, nil
}

// codecOps bounds the op string checkCodec reads, so one check stays
// well under a millisecond: at most ~620 bits of message.
const codecOps = 96

// checkCodec decodes ops into a sequence of Writer calls — WriteBit,
// WriteBool, WriteUint at widths 0–64, WriteUvarint, WriteGamma and
// WriteBytes — after align leading bits, and requires the Writer to match
// refWriter's bytes and bit length after every call. It then reads the
// message with ReadUint at every offset and width 0–64 and requires
// refReadUint's value, position and error, ErrShortMessage past the end.
func checkCodec(t *testing.T, align int, ops []byte) {
	t.Helper()
	if len(ops) > codecOps {
		ops = ops[:codecOps]
	}
	next := func() byte {
		if len(ops) == 0 {
			return 0
		}
		b := ops[0]
		ops = ops[1:]
		return b
	}
	word := func() uint64 {
		var v uint64
		for i := 0; i < 8; i++ {
			v = v<<8 | uint64(next())
		}
		return v
	}
	var w Writer
	var ref refWriter
	for i := 0; i < align; i++ {
		w.WriteBit(uint(i & 1))
		ref.bit(uint(i & 1))
	}
	for call := 0; len(ops) > 0; call++ {
		op := next() % 6
		switch op {
		case 0:
			b := uint(next())
			w.WriteBit(b)
			ref.bit(b)
		case 1:
			b := next()&1 == 1
			w.WriteBool(b)
			if b {
				ref.bit(1)
			} else {
				ref.bit(0)
			}
		case 2:
			width := int(next() % 65)
			v := word()
			w.WriteUint(v, width)
			ref.uint(v, width)
		case 3:
			shift := next() % 64
			v := word() >> shift
			w.WriteUvarint(v)
			ref.uvarint(v)
		case 4:
			shift := next() % 64
			v := max(word()>>shift, 1)
			w.WriteGamma(v)
			ref.gamma(v)
		case 5:
			p := make([]byte, next()%9)
			for i := range p {
				p[i] = next()
			}
			w.WriteBytes(p)
			for _, b := range p {
				ref.uint(uint64(b), 8)
			}
		}
		if w.BitLen() != ref.nbit || !bytes.Equal(w.Bytes(), ref.buf) {
			t.Fatalf("align %d, call %d (op %d): writer has %d bits %x, reference %d bits %x",
				align, call, op, w.BitLen(), w.Bytes(), ref.nbit, ref.buf)
		}
	}
	buf, nbit := w.Bytes(), w.BitLen()
	r := NewReader(buf, nbit)
	for pos := 0; pos <= nbit; pos++ {
		for width := 0; width <= 64; width++ {
			at := *r
			got, err := at.ReadUint(width)
			want, werr := refReadUint(buf, nbit, pos, width)
			if got != want || err != werr {
				t.Fatalf("align %d: ReadUint(%d) at bit %d of %d = %#x, %v; reference %#x, %v",
					align, width, pos, nbit, got, err, want, werr)
			}
			if werr == nil && at.Remaining() != nbit-pos-width {
				t.Fatalf("align %d: ReadUint(%d) at bit %d left %d bits, want %d",
					align, width, pos, at.Remaining(), nbit-pos-width)
			}
		}
		if pos < nbit {
			r.ReadBit()
		}
	}
}

// TestCodecMatchesReference drives Writer and Reader against the
// bit-at-a-time reference with random op strings at every alignment.
func TestCodecMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	ops := make([]byte, codecOps)
	for trial := 0; trial < 24; trial++ {
		rng.Read(ops)
		for align := 0; align < 8; align++ {
			checkCodec(t, align, ops)
		}
	}
}

// FuzzCodec is TestCodecMatchesReference on arbitrary op strings.
func FuzzCodec(f *testing.F) {
	f.Add(uint8(0), []byte{2, 64, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(uint8(3), []byte{0, 1, 2, 13, 0xde, 0xad, 0xbe, 0xef, 0, 0, 0, 0, 5, 8, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(uint8(7), []byte{3, 0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 4, 63, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, align uint8, ops []byte) {
		checkCodec(t, int(align%8), ops)
	})
}
