// Package wire provides bit-exact message encoding for communication
// protocols.
//
// The communication complexity of a protocol is defined as the number of
// bits exchanged, so every message in this repository is serialized through
// this package and the measured cost of a protocol is exactly the number of
// bits produced here. The package offers a bit-granular Writer/Reader pair
// plus fixed-width, varint and elias-gamma integer codecs, and higher-level
// codecs for vertices, edges and edge lists (see codec.go).
//
// The layout is that of writing one bit at a time, MSB first inside each
// byte, with the last byte zero-padded. WriteUint and ReadUint move up to a
// byte per step; the tests check them against a bit-at-a-time reference.
package wire

import (
	"errors"
	"fmt"
	"math/bits"
)

// Sentinel errors returned by Reader methods.
var (
	// ErrShortMessage indicates a read past the end of the encoded message.
	ErrShortMessage = errors.New("wire: read past end of message")
	// ErrWidth indicates an invalid fixed-width argument (must be 0..64).
	ErrWidth = errors.New("wire: width out of range")
	// ErrOverflow indicates a varint whose encoding exceeds 64 bits.
	ErrOverflow = errors.New("wire: varint overflows uint64")
)

// Writer accumulates a bit string. The zero value is ready to use.
//
// Bits are appended MSB-first inside each byte, so the encoded form is a
// deterministic function of the sequence of Write calls, independent of
// alignment. Writer is not safe for concurrent use.
type Writer struct {
	buf  []byte
	nbit int // total number of bits written
}

// NewWriter returns an empty Writer with capacity for sizeHint bits.
func NewWriter(sizeHint int) *Writer {
	if sizeHint < 0 {
		sizeHint = 0
	}
	return &Writer{buf: make([]byte, 0, (sizeHint+7)/8)}
}

// BitLen reports the number of bits written so far.
func (w *Writer) BitLen() int { return w.nbit }

// Bytes returns the encoded bit string, padded with zero bits to a byte
// boundary. The returned slice aliases the writer's internal buffer; it must
// not be modified while the writer is still in use.
func (w *Writer) Bytes() []byte { return w.buf }

// Reset truncates the writer to the empty bit string, retaining capacity.
func (w *Writer) Reset() {
	w.buf = w.buf[:0]
	w.nbit = 0
}

// WriteBit appends a single bit (any nonzero b encodes as 1).
func (w *Writer) WriteBit(b uint) {
	idx := w.nbit >> 3
	if idx == len(w.buf) {
		w.buf = append(w.buf, 0)
	}
	if b != 0 {
		w.buf[idx] |= 1 << (7 - uint(w.nbit&7))
	}
	w.nbit++
}

// WriteBool appends a single bit: 1 for true, 0 for false.
func (w *Writer) WriteBool(v bool) {
	if v {
		w.WriteBit(1)
	} else {
		w.WriteBit(0)
	}
}

// WriteUint appends the width low-order bits of v, MSB first. Width must be
// in 0..64; writing width 0 is a no-op. Bits of v above width are ignored.
// Each step fills the rest of the last byte, so it moves up to 8 bits.
func (w *Writer) WriteUint(v uint64, width int) {
	if width < 0 || width > 64 {
		panic(fmt.Sprintf("wire: WriteUint width %d out of range", width))
	}
	for width > 0 {
		used := w.nbit & 7
		if used == 0 {
			w.buf = append(w.buf, 0)
		}
		n := min(8-used, width)
		width -= n
		chunk := byte(v>>uint(width)) & (1<<n - 1)
		w.buf[len(w.buf)-1] |= chunk << (8 - used - n)
		w.nbit += n
	}
}

// WriteUvarint appends v using a 7-bit group varint: each group is preceded
// by a continuation bit, so small values cost 8 bits and the encoding of v
// costs 8·ceil(bitlen(v)/7) bits.
func (w *Writer) WriteUvarint(v uint64) {
	for {
		group := v & 0x7f
		v >>= 7
		if v == 0 {
			w.WriteUint(group, 8)
			return
		}
		w.WriteUint(0x80|group, 8)
	}
}

// WriteGamma appends v using Elias gamma coding (v must be ≥ 1): a unary
// length prefix followed by the value, costing 2·floor(log₂ v)+1 bits. It is
// the codec of choice for small positive counts.
func (w *Writer) WriteGamma(v uint64) {
	if v == 0 {
		panic("wire: WriteGamma requires v >= 1")
	}
	n := bits.Len64(v) // number of significant bits
	w.WriteUint(0, n-1)
	w.WriteUint(v, n)
}

// WriteBytes appends the given bytes as 8·len(p) bits.
func (w *Writer) WriteBytes(p []byte) {
	for _, b := range p {
		w.WriteUint(uint64(b), 8)
	}
}

// Reader consumes a bit string produced by Writer. Reader is not safe for
// concurrent use.
type Reader struct {
	buf  []byte
	nbit int // total number of readable bits
	pos  int // next bit to read
}

// NewReader returns a Reader over the first nbit bits of buf. If nbit is
// negative, all 8·len(buf) bits are readable.
func NewReader(buf []byte, nbit int) *Reader {
	if nbit < 0 || nbit > 8*len(buf) {
		nbit = 8 * len(buf)
	}
	return &Reader{buf: buf, nbit: nbit}
}

// ReaderFor returns a Reader over the bits written to w, without copying.
func ReaderFor(w *Writer) *Reader { return NewReader(w.buf, w.nbit) }

// Remaining reports the number of unread bits.
func (r *Reader) Remaining() int { return r.nbit - r.pos }

// ReadBit consumes and returns a single bit.
func (r *Reader) ReadBit() (uint, error) {
	if r.pos >= r.nbit {
		return 0, ErrShortMessage
	}
	b := uint(r.buf[r.pos>>3]>>(7-uint(r.pos&7))) & 1
	r.pos++
	return b, nil
}

// ReadBool consumes a single bit as a boolean.
func (r *Reader) ReadBool() (bool, error) {
	b, err := r.ReadBit()
	return b != 0, err
}

// ReadUint consumes width bits and returns them as an unsigned integer.
// Each step takes the rest of the current byte, so it moves up to 8 bits.
func (r *Reader) ReadUint(width int) (uint64, error) {
	if width < 0 || width > 64 {
		return 0, fmt.Errorf("%w: %d", ErrWidth, width)
	}
	if r.Remaining() < width {
		return 0, ErrShortMessage
	}
	var v uint64
	for width > 0 {
		left := 8 - r.pos&7 // unread bits of the current byte
		n := min(left, width)
		chunk := r.buf[r.pos>>3] >> (left - n) & (1<<n - 1)
		v = v<<uint(n) | uint64(chunk)
		r.pos += n
		width -= n
	}
	return v, nil
}

// ReadUvarint consumes a varint written by WriteUvarint.
func (r *Reader) ReadUvarint() (uint64, error) {
	var v uint64
	var shift uint
	for {
		cont, err := r.ReadBit()
		if err != nil {
			return 0, err
		}
		group, err := r.ReadUint(7)
		if err != nil {
			return 0, err
		}
		if shift >= 64 || (shift == 63 && group > 1) {
			return 0, ErrOverflow
		}
		v |= group << shift
		if cont == 0 {
			return v, nil
		}
		shift += 7
	}
}

// ReadGamma consumes an Elias gamma code written by WriteGamma.
func (r *Reader) ReadGamma() (uint64, error) {
	zeros := 0
	for {
		b, err := r.ReadBit()
		if err != nil {
			return 0, err
		}
		if b == 1 {
			break
		}
		zeros++
		if zeros >= 64 {
			return 0, ErrOverflow
		}
	}
	rest, err := r.ReadUint(zeros)
	if err != nil {
		return 0, err
	}
	return 1<<uint(zeros) | rest, nil
}

// ReadBytes consumes 8·n bits into a fresh byte slice.
func (r *Reader) ReadBytes(n int) ([]byte, error) {
	if n < 0 || n > r.Remaining()/8 {
		return nil, ErrShortMessage
	}
	p := make([]byte, n)
	for i := range p {
		v, _ := r.ReadUint(8)
		p[i] = byte(v)
	}
	return p, nil
}

// BitsFor returns the number of bits needed to represent values in [0, n),
// i.e. ceil(log₂ n). BitsFor(0) and BitsFor(1) are 0.
func BitsFor(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len64(uint64(n - 1))
}
