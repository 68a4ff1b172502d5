package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync/atomic"
)

// Frame wire layout. A frame is byte-aligned on the wire:
//
//	header:  payload length in BITS, encoded as a uvarint
//	payload: ceil(bits/8) bytes, MSB-first bit packing (wire.Writer layout),
//	         final byte zero-padded
//
// The header is exactly the byte-aligned form of wire.Writer.WriteUvarint —
// each byte carries a continuation bit in the MSB and a 7-bit group, low
// groups first — which coincides with the standard LEB128 varint, so
// encoding/binary's AppendUvarint/ReadUvarint produce and consume identical
// bytes (pinned by TestFrameHeaderMatchesWireUvarint). A frame therefore
// costs HeaderBytes(bits) + ceil(bits/8) bytes; the per-frame overhead over
// the metered payload bits is at most MaxHeaderBytes plus the sub-byte
// padding of the final payload byte.

// Frame codec errors.
var (
	// ErrFrameTooLarge indicates a header whose bit length exceeds
	// MaxFrameBits (a corrupt or hostile stream).
	ErrFrameTooLarge = errors.New("transport: frame exceeds MaxFrameBits")
	// ErrFrameTruncated indicates a frame cut short of its declared length.
	ErrFrameTruncated = errors.New("transport: truncated frame")
)

// MaxFrameBits is the largest payload a single frame may carry (128 MiB of
// payload). Decoders reject larger headers before allocating.
const MaxFrameBits = 1 << 30

// MaxHeaderBytes is the largest header a legal frame can have: the uvarint
// encoding of any bit length up to MaxFrameBits fits in 5 bytes. Together
// with the final payload byte's padding this bounds the framing overhead:
// for any frame, wire bytes ≤ bits/8 + MaxHeaderBytes + 1.
const MaxHeaderBytes = 5

// HeaderBytes reports the encoded size of the frame header for a payload of
// the given bit length.
func HeaderBytes(bits int) int {
	n := 1
	for v := uint64(bits); v >= 0x80; v >>= 7 {
		n++
	}
	return n
}

// FrameSize reports the exact on-wire size in bytes of a frame carrying the
// given number of payload bits: header plus packed payload.
func FrameSize(bits int) int {
	return HeaderBytes(bits) + (bits+7)/8
}

// AppendFrame appends the wire encoding of f to dst and returns the
// extended slice. It panics if f.Bits is negative, exceeds MaxFrameBits, or
// f.Data is shorter than the packed payload — those are programming errors,
// not wire conditions.
func AppendFrame(dst []byte, f Frame) []byte {
	if f.Bits < 0 || f.Bits > MaxFrameBits {
		panic(fmt.Sprintf("transport: frame bits %d out of range", f.Bits))
	}
	nb := (f.Bits + 7) / 8
	if len(f.Data) < nb {
		panic(fmt.Sprintf("transport: frame data %d bytes < packed payload %d", len(f.Data), nb))
	}
	dst = binary.AppendUvarint(dst, uint64(f.Bits))
	return append(dst, f.Data[:nb]...)
}

// readFrame reads one frame from br. The payload is freshly allocated: the
// engine hands received frames to protocol code that may retain them across
// rounds, so a reusable buffer would alias live messages.
func readFrame(br *bufio.Reader) (Frame, error) {
	bits, err := binary.ReadUvarint(br)
	if err != nil {
		return Frame{}, err
	}
	if bits > MaxFrameBits {
		return Frame{}, ErrFrameTooLarge
	}
	nb := int(bits+7) / 8
	data := make([]byte, nb)
	if _, err := io.ReadFull(br, data); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return Frame{}, ErrFrameTruncated
		}
		return Frame{}, err
	}
	return Frame{Bits: int(bits), Data: data}, nil
}

// endStats is the atomic counter block behind a Conn's Stats.
type endStats struct {
	bytesOut, bytesIn   atomic.Int64
	framesOut, framesIn atomic.Int64
}

func (s *endStats) sent(bits int) {
	s.bytesOut.Add(int64(FrameSize(bits)))
	s.framesOut.Add(1)
}

func (s *endStats) received(bits int) {
	s.bytesIn.Add(int64(FrameSize(bits)))
	s.framesIn.Add(1)
}

func (s *endStats) snapshot() LinkStats {
	return LinkStats{
		BytesOut:  s.bytesOut.Load(),
		BytesIn:   s.bytesIn.Load(),
		FramesOut: s.framesOut.Load(),
		FramesIn:  s.framesIn.Load(),
	}
}
