package comm

import (
	"tricomm/internal/transport"
	"tricomm/internal/wire"
)

// Msg is an immutable bit-string message. The zero value is the empty
// message.
type Msg struct {
	bits int
	data []byte
}

// FromWriter seals the bits written to w into a message. The writer's
// buffer is copied, so w may be reused afterwards.
func FromWriter(w *wire.Writer) Msg {
	data := make([]byte, len(w.Bytes()))
	copy(data, w.Bytes())
	return Msg{bits: w.BitLen(), data: data}
}

// Bits reports the message length in bits.
func (m Msg) Bits() int { return m.bits }

// Reader returns a fresh reader over the message bits.
func (m Msg) Reader() *wire.Reader { return wire.NewReader(m.data, m.bits) }

// frameOf views the message as a transport frame. No copy: both forms are
// immutable, so the frame may alias the message bytes.
func frameOf(m Msg) transport.Frame { return transport.Frame{Bits: m.bits, Data: m.data} }

// msgOf views a received transport frame as a message, again without
// copying; transports never reuse a delivered frame's buffer.
func msgOf(f transport.Frame) Msg { return Msg{bits: f.Bits, data: f.Data} }
