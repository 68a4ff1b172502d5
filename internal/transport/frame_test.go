package transport

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"tricomm/internal/wire"
)

// DecodeFrame decodes one frame from the front of p, returning the frame
// and the number of bytes consumed. The returned frame's Data aliases p.
func DecodeFrame(p []byte) (Frame, int, error) {
	bits, n := binary.Uvarint(p)
	if n <= 0 {
		return Frame{}, 0, ErrFrameTruncated
	}
	if bits > MaxFrameBits {
		return Frame{}, 0, ErrFrameTooLarge
	}
	nb := int(bits+7) / 8
	if len(p) < n+nb {
		return Frame{}, 0, ErrFrameTruncated
	}
	return Frame{Bits: int(bits), Data: p[n : n+nb]}, n + nb, nil
}

// TestFrameGoldenLayout pins the frame byte layout. These bytes are the
// wire format; changing them silently would break cross-version sessions,
// so any diff here must be deliberate.
func TestFrameGoldenLayout(t *testing.T) {
	cases := []struct {
		name string
		f    Frame
		hex  string
	}{
		{"empty", Frame{Bits: 0, Data: nil}, "00"},
		{"one-bit", Frame{Bits: 1, Data: []byte{0x80}}, "0180"},
		{"ack-like", Frame{Bits: 1, Data: []byte{0x80, 0xff}}, "0180"}, // extra bytes ignored
		{"byte", Frame{Bits: 8, Data: []byte{0xab}}, "08ab"},
		{"two-bytes-ragged", Frame{Bits: 13, Data: []byte{0xde, 0xa8}}, "0ddea8"},
		{"hdr-two-byte", Frame{Bits: 300, Data: bytes.Repeat([]byte{0x5a}, 38)},
			"ac02" + hex.EncodeToString(bytes.Repeat([]byte{0x5a}, 38))},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := AppendFrame(nil, tc.f)
			if g := hex.EncodeToString(got); g != tc.hex {
				t.Fatalf("AppendFrame = %s, want %s", g, tc.hex)
			}
			if len(got) != FrameSize(tc.f.Bits) {
				t.Fatalf("FrameSize(%d) = %d, encoded %d bytes", tc.f.Bits, FrameSize(tc.f.Bits), len(got))
			}
			dec, n, err := DecodeFrame(got)
			if err != nil {
				t.Fatalf("DecodeFrame: %v", err)
			}
			if n != len(got) || dec.Bits != tc.f.Bits {
				t.Fatalf("DecodeFrame = %d bits / %d bytes, want %d / %d", dec.Bits, n, tc.f.Bits, len(got))
			}
			nb := (tc.f.Bits + 7) / 8
			if !bytes.Equal(dec.Data, tc.f.Data[:nb]) {
				t.Fatalf("payload %x, want %x", dec.Data, tc.f.Data[:nb])
			}
		})
	}
}

// TestFrameHeaderMatchesWireUvarint pins the claim in frame.go: the frame
// header is exactly the byte-aligned encoding wire.Writer.WriteUvarint
// produces, so the framing layer and the bit-metering layer share one
// integer codec.
func TestFrameHeaderMatchesWireUvarint(t *testing.T) {
	for _, bits := range []int{0, 1, 7, 127, 128, 300, 16383, 16384, 1 << 20, MaxFrameBits} {
		var w wire.Writer
		w.WriteUvarint(uint64(bits))
		if w.BitLen()%8 != 0 {
			t.Fatalf("wire uvarint of %d is not byte-aligned: %d bits", bits, w.BitLen())
		}
		hdr := binary.AppendUvarint(nil, uint64(bits))
		if !bytes.Equal(hdr, w.Bytes()) {
			t.Fatalf("header(%d) = %x, wire uvarint = %x", bits, hdr, w.Bytes())
		}
		if HeaderBytes(bits) != w.BitLen()/8 {
			t.Fatalf("HeaderBytes(%d) = %d, wire uses %d", bits, HeaderBytes(bits), w.BitLen()/8)
		}
	}
}

// TestDecodeFrameCorrupt exercises the decoder's failure modes.
func TestDecodeFrameCorrupt(t *testing.T) {
	if _, _, err := DecodeFrame(nil); err == nil {
		t.Error("empty buffer decoded")
	}
	// Header larger than MaxFrameBits.
	huge := []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}
	if _, _, err := DecodeFrame(huge); err != ErrFrameTooLarge {
		t.Errorf("oversized header: err = %v, want ErrFrameTooLarge", err)
	}
	// Truncated payload.
	trunc := AppendFrame(nil, Frame{Bits: 64, Data: make([]byte, 8)})
	if _, _, err := DecodeFrame(trunc[:4]); err != ErrFrameTruncated {
		t.Errorf("truncated payload: err = %v, want ErrFrameTruncated", err)
	}
	// readFrame must agree on the stream form.
	if _, err := readFrame(bufio.NewReader(bytes.NewReader(huge))); err != ErrFrameTooLarge {
		t.Errorf("readFrame oversized header: err = %v, want ErrFrameTooLarge", err)
	}
	if _, err := readFrame(bufio.NewReader(bytes.NewReader(trunc[:4]))); err != ErrFrameTruncated {
		t.Errorf("readFrame truncated payload: err = %v, want ErrFrameTruncated", err)
	}
}

// FuzzFrameRoundTrip fuzzes encode→decode identity for the frame codec and
// checks that decoding arbitrary bytes never panics or over-reads.
func FuzzFrameRoundTrip(f *testing.F) {
	f.Add([]byte{}, uint(0))
	f.Add([]byte{0x80}, uint(7))
	f.Add([]byte{0xde, 0xad, 0xbe, 0xef}, uint(3))
	f.Add(bytes.Repeat([]byte{0x55}, 300), uint(0))
	f.Fuzz(func(t *testing.T, payload []byte, trim uint) {
		// Interpret the inputs as a well-formed frame: bits spans the whole
		// payload minus up to 7 trimmed bits, final byte zero-padded the way
		// wire.Writer leaves it.
		bits := 8 * len(payload)
		if bits > 0 {
			bits -= int(trim % 8)
		}
		nb := (bits + 7) / 8
		data := append([]byte(nil), payload[:nb]...)
		if pad := 8*nb - bits; pad > 0 && nb > 0 {
			data[nb-1] &^= byte(1<<pad - 1)
		}

		enc := AppendFrame(nil, Frame{Bits: bits, Data: data})
		dec, n, err := DecodeFrame(enc)
		if err != nil {
			t.Fatalf("decode of encoded frame failed: %v", err)
		}
		if n != len(enc) {
			t.Fatalf("decode consumed %d of %d bytes", n, len(enc))
		}
		if dec.Bits != bits || !bytes.Equal(dec.Data, data) {
			t.Fatalf("round trip: got %d bits %x, want %d bits %x", dec.Bits, dec.Data, bits, data)
		}

		// Stream decoder must agree byte for byte.
		sf, err := readFrame(bufio.NewReader(bytes.NewReader(enc)))
		if err != nil {
			t.Fatalf("readFrame of encoded frame failed: %v", err)
		}
		if sf.Bits != bits || !bytes.Equal(sf.Data, data) {
			t.Fatalf("stream round trip diverged: %d bits %x", sf.Bits, sf.Data)
		}

		// Decoding the raw fuzz input as a frame must not panic, and on
		// success must not claim more bytes than it was given.
		if g, n, err := DecodeFrame(payload); err == nil {
			if n > len(payload) || (g.Bits+7)/8 != len(g.Data) {
				t.Fatalf("decode of raw input inconsistent: n=%d bits=%d data=%d", n, g.Bits, len(g.Data))
			}
		}
	})
}
