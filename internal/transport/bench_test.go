package transport

import (
	"bufio"
	"bytes"
	"context"
	"testing"
)

// BenchmarkFrameEncode measures the framing hot path: encoding a session's
// worth of mixed-size messages into a reused buffer. Steady state must not
// allocate.
func BenchmarkFrameEncode(b *testing.B) {
	frames := sessionFrames()
	buf := make([]byte, 0, 1<<16)
	b.ReportAllocs()
	b.ResetTimer()
	var sink int
	for i := 0; i < b.N; i++ {
		for _, f := range frames {
			buf = AppendFrame(buf[:0], f)
			sink += len(buf)
		}
	}
	_ = sink
}

// BenchmarkFrameDecode measures in-place decoding of a pre-encoded stream
// (DecodeFrame aliases the input, so steady state must not allocate).
func BenchmarkFrameDecode(b *testing.B) {
	var stream []byte
	for _, f := range sessionFrames() {
		stream = AppendFrame(stream, f)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := stream
		for len(p) > 0 {
			_, n, err := DecodeFrame(p)
			if err != nil {
				b.Fatal(err)
			}
			p = p[n:]
		}
	}
}

// BenchmarkFrameReadStream measures the socket-side decoder (bufio +
// per-frame payload allocation, the documented cost of the net transport).
func BenchmarkFrameReadStream(b *testing.B) {
	var stream []byte
	frames := sessionFrames()
	for _, f := range frames {
		stream = AppendFrame(stream, f)
	}
	rd := bytes.NewReader(stream)
	br := bufio.NewReader(rd)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rd.Reset(stream)
		br.Reset(rd)
		for range frames {
			if _, err := readFrame(br); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkChanRoundTrip measures a send/recv round trip on the in-process
// transport — the per-message overhead every protocol session pays. The
// steady state target is 0 allocs/op.
func BenchmarkChanRoundTrip(b *testing.B) {
	links, err := Chan{}.Dial(1)
	if err != nil {
		b.Fatal(err)
	}
	defer closeLinks(links)
	ctx := context.Background()
	req := frame(96, 0xa5)
	rep := frame(32, 0x5a)
	l := links[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := l.A.Send(ctx, req); err != nil {
			b.Fatal(err)
		}
		if _, err := l.B.Recv(ctx); err != nil {
			b.Fatal(err)
		}
		if err := l.B.Send(ctx, rep); err != nil {
			b.Fatal(err)
		}
		if _, err := l.A.Recv(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTCPRoundTrip is the same round trip over a real loopback
// socket, for the wire-vs-channel comparison in DESIGN.md §6.
func BenchmarkTCPRoundTrip(b *testing.B) {
	links, err := Net{TCP: true}.Dial(1)
	if err != nil {
		b.Fatal(err)
	}
	defer closeLinks(links)
	ctx := context.Background()
	req := frame(96, 0xa5)
	rep := frame(32, 0x5a)
	l := links[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := l.A.Send(ctx, req); err != nil {
			b.Fatal(err)
		}
		if _, err := l.B.Recv(ctx); err != nil {
			b.Fatal(err)
		}
		if err := l.B.Send(ctx, rep); err != nil {
			b.Fatal(err)
		}
		if _, err := l.A.Recv(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

// sessionFrames is a realistic mix of message sizes from one interactive
// tester session: many small control frames, some mid-size samples, a few
// large edge lists.
func sessionFrames() []Frame {
	var frames []Frame
	for i := 0; i < 64; i++ {
		frames = append(frames, frame(9+i%23, byte(i)))
	}
	for i := 0; i < 16; i++ {
		frames = append(frames, frame(300+40*i, byte(i)))
	}
	for i := 0; i < 4; i++ {
		frames = append(frames, frame(20000+1000*i, byte(i)))
	}
	return frames
}
