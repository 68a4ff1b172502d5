package transport

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"
)

// JSON returns the canonical JSON encoding of the spec.
func (s FaultSpec) JSON() string {
	b, err := json.Marshal(s)
	if err != nil {
		panic(fmt.Sprintf("transport: marshal FaultSpec: %v", err)) // no unmarshalable fields
	}
	return string(b)
}

func TestParseFaultSpec(t *testing.T) {
	for _, tc := range []struct {
		in      string
		want    FaultSpec
		wantErr bool
	}{
		{in: "", want: FaultSpec{}},
		{in: "off", want: FaultSpec{}},
		{in: "none", want: FaultSpec{}},
		{in: "lossy", want: FaultSpec{Drop: 0.05, Duplicate: 0.02, Corrupt: 0.02}},
		{in: "chaos", want: FaultSpec{Drop: 0.15, Duplicate: 0.1, Corrupt: 0.1, Stall: 0.05, Disconnect: 0.002}},
		{in: `{"seed":7,"drop":0.5,"max_resend":3}`, want: FaultSpec{Seed: 7, Drop: 0.5, MaxResend: 3}},
		{in: "bogus", wantErr: true},
		{in: `{"drop":1.5}`, wantErr: true},
		{in: `{"drop":-0.1}`, wantErr: true},
		{in: `{"nope":1}`, wantErr: true},
		{in: `{"max_resend":-1}`, wantErr: true},
	} {
		got, err := ParseFaultSpec(tc.in)
		if tc.wantErr {
			if err == nil {
				t.Errorf("ParseFaultSpec(%q) = %+v, want error", tc.in, got)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseFaultSpec(%q): %v", tc.in, err)
			continue
		}
		if got != tc.want {
			t.Errorf("ParseFaultSpec(%q) = %+v, want %+v", tc.in, got, tc.want)
		}
	}
	// Round trip through the canonical JSON form.
	spec := FaultSpec{Seed: 42, Drop: 0.1, Corrupt: 0.05, MaxResend: 8, DeadlineMS: 500}
	back, err := ParseFaultSpec(spec.JSON())
	if err != nil || back != spec {
		t.Fatalf("JSON round trip: %+v, %v, want %+v", back, err, spec)
	}
}

func TestFaultSpecWithSeed(t *testing.T) {
	if got := (FaultSpec{Drop: 0.1}).WithSeed(99); got.Seed != 99 {
		t.Fatalf("WithSeed on zero seed = %d, want 99", got.Seed)
	}
	if got := (FaultSpec{Seed: 5}).WithSeed(99); got.Seed != 5 {
		t.Fatalf("WithSeed must not override an explicit seed: got %d", got.Seed)
	}
}

// sendOutcomes runs n Sends over a fresh faulty link and records, per
// transmission, the outcome class and what (if anything) arrived.
func sendOutcomes(t *testing.T, spec FaultSpec, n int) []string {
	t.Helper()
	links, err := Faulty{Inner: Chan{Buf: 2 * n}, Spec: spec}.Dial(1)
	if err != nil {
		t.Fatal(err)
	}
	defer closeLinks(links)
	ctx := context.Background()
	out := make([]string, 0, n)
	for i := 0; i < n; i++ {
		err := links[0].A.Send(ctx, frame(64, byte(i+1)))
		switch {
		case err == nil:
			out = append(out, "ok")
		case errors.Is(err, ErrFrameLost):
			out = append(out, "lost")
		case errors.Is(err, ErrAborted):
			out = append(out, "aborted")
			return out
		default:
			t.Fatalf("send %d: %v", i, err)
		}
	}
	return out
}

// TestFaultScheduleDeterministic pins the reproducibility contract: the
// same seed replays the identical fault schedule, a different seed does not.
func TestFaultScheduleDeterministic(t *testing.T) {
	spec := FaultSpec{Seed: 1234, Drop: 0.2, Corrupt: 0.15, Duplicate: 0.1, Disconnect: 0.01}
	a := sendOutcomes(t, spec, 200)
	b := sendOutcomes(t, spec, 200)
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("same seed diverged:\n%v\n%v", a, b)
	}
	c := sendOutcomes(t, FaultSpec{Seed: 1235, Drop: 0.2, Corrupt: 0.15, Duplicate: 0.1, Disconnect: 0.01}, 200)
	if fmt.Sprint(a) == fmt.Sprint(c) {
		t.Fatal("different seeds produced the identical fault schedule")
	}
}

// TestFaultyDrop pins that a dropped frame is sender-visible loss and that
// nothing arrives at the receiver.
func TestFaultyDrop(t *testing.T) {
	links, err := Faulty{Inner: Chan{Buf: 8}, Spec: FaultSpec{Seed: 1, Drop: 0.999999}}.Dial(1)
	if err != nil {
		t.Fatal(err)
	}
	defer closeLinks(links)
	ctx := context.Background()
	for i := 0; i < 10; i++ {
		if err := links[0].A.Send(ctx, frame(64, 0xaa)); !errors.Is(err, ErrFrameLost) {
			t.Fatalf("send %d over drop-everything link: %v, want ErrFrameLost", i, err)
		}
	}
	rctx, cancel := context.WithTimeout(ctx, 50*time.Millisecond)
	defer cancel()
	if f, err := links[0].B.Recv(rctx); err == nil {
		t.Fatalf("dropped frame arrived: %v", f)
	}
	st := links[0].A.Stats()
	if st.FramesOut != 10 || st.BytesOut != 10*int64(FrameSize(64)) {
		t.Fatalf("dropped frames must still be counted as attempted traffic: %+v", st)
	}
}

// TestFaultyCorrupt pins corruption semantics: the sender sees loss, the
// receiver gets the frame with exactly one bit flipped.
func TestFaultyCorrupt(t *testing.T) {
	links, err := Faulty{Inner: Chan{Buf: 8}, Spec: FaultSpec{Seed: 2, Corrupt: 0.999999}}.Dial(1)
	if err != nil {
		t.Fatal(err)
	}
	defer closeLinks(links)
	ctx := context.Background()
	sent := frame(64, 0x5f)
	orig := append([]byte(nil), sent.Data...)
	if err := links[0].A.Send(ctx, sent); !errors.Is(err, ErrFrameLost) {
		t.Fatalf("send over corrupt-everything link: %v, want ErrFrameLost", err)
	}
	if !bytes.Equal(sent.Data, orig) {
		t.Fatal("corruption mutated the caller's frame in place")
	}
	got, err := links[0].B.Recv(ctx)
	if err != nil {
		t.Fatal(err)
	}
	diff := 0
	for i := range got.Data {
		b := got.Data[i] ^ orig[i]
		for ; b != 0; b &= b - 1 {
			diff++
		}
	}
	if diff != 1 {
		t.Fatalf("corrupted frame differs in %d bits, want exactly 1", diff)
	}
}

// sendLimitConn passes its first ok Sends to the wrapped Conn and fails
// every later one with ErrClosed, as a peer that closed would.
type sendLimitConn struct {
	Conn
	ok int
}

func (c *sendLimitConn) Send(ctx context.Context, f Frame) error {
	if c.ok == 0 {
		return ErrClosed
	}
	c.ok--
	return c.Conn.Send(ctx, f)
}

// TestFaultyDuplicate pins duplicate accounting: an injected copy is
// counted when the schedule injects it, before it is sent, and a failed
// send of the copy (the peer may close once it has the original) is not
// the sender's error.
func TestFaultyDuplicate(t *testing.T) {
	links, err := Chan{Buf: 8}.Dial(1)
	if err != nil {
		t.Fatal(err)
	}
	defer closeLinks(links)
	l := Faulty{Spec: FaultSpec{Seed: 5, Duplicate: 1}}.newLink(0, Link{A: &sendLimitConn{Conn: links[0].A, ok: 1}, B: links[0].B})
	dups := mFaults.With("duplicate")
	before := dups.Value()
	if err := l.A.Send(context.Background(), frame(64, 0x3c)); err != nil {
		t.Fatalf("send whose duplicate could not be delivered: %v, want nil", err)
	}
	if st := l.A.Stats(); st.FramesOut != 2 || st.BytesOut != 2*int64(FrameSize(64)) {
		t.Fatalf("original and duplicate must both be counted: %+v", st)
	}
	if got := dups.Value() - before; got != 1 {
		t.Fatalf("recorded %v duplicate faults, want 1", got)
	}
}

// TestFaultyDisconnect pins hard-disconnect semantics: the first
// transmission kills the link, both endpoints observe ErrAborted from then
// on, and a Recv blocked at disconnect time is unblocked.
func TestFaultyDisconnect(t *testing.T) {
	links, err := Faulty{Inner: Chan{}, Spec: FaultSpec{Seed: 3, Disconnect: 0.999999}}.Dial(1)
	if err != nil {
		t.Fatal(err)
	}
	defer closeLinks(links)
	ctx := context.Background()

	recvErr := make(chan error, 1)
	go func() {
		_, err := links[0].B.Recv(ctx)
		recvErr <- err
	}()
	time.Sleep(10 * time.Millisecond)

	if err := links[0].A.Send(ctx, frame(8, 1)); !errors.Is(err, ErrAborted) {
		t.Fatalf("disconnecting send: %v, want ErrAborted", err)
	}
	select {
	case err := <-recvErr:
		if !errors.Is(err, ErrAborted) {
			t.Fatalf("blocked Recv after disconnect: %v, want ErrAborted", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("disconnect did not unblock the peer's Recv")
	}
	if err := links[0].B.Send(ctx, frame(8, 2)); !errors.Is(err, ErrAborted) {
		t.Fatalf("peer send after disconnect: %v, want ErrAborted", err)
	}
	if _, err := links[0].A.Recv(ctx); !errors.Is(err, ErrAborted) {
		t.Fatalf("Recv after disconnect: %v, want ErrAborted", err)
	}
}

// TestEnvelopeRoundTrip covers the resilient envelope codec, including the
// guarantee the fault model leans on: any single-bit corruption is caught
// by the checksum.
func TestEnvelopeRoundTrip(t *testing.T) {
	for _, bits := range []int{0, 1, 7, 8, 64, 300} {
		f := frame(bits, 0xb7)
		for seq := uint64(0); seq < 3; seq++ {
			env := appendEnvelope(nil, seq, f)
			gotSeq, got, ok := decodeEnvelope(Frame{Bits: 8 * len(env), Data: env})
			if !ok || gotSeq != seq || got.Bits != f.Bits ||
				!bytes.Equal(got.Data, f.Data[:(bits+7)/8]) {
				t.Fatalf("round trip (bits=%d seq=%d): ok=%v seq=%d frame=%+v", bits, seq, ok, gotSeq, got)
			}
			// Flip every bit in turn: the decode must reject each mutation
			// (CRC32 detects all single-bit errors).
			for i := 0; i < 8*len(env); i++ {
				mut := append([]byte(nil), env...)
				mut[i/8] ^= 1 << (7 - i%8)
				if _, _, ok := decodeEnvelope(Frame{Bits: 8 * len(mut), Data: mut}); ok {
					t.Fatalf("bits=%d seq=%d: flipped bit %d went undetected", bits, seq, i)
				}
			}
		}
	}
	if _, _, ok := decodeEnvelope(frame(16, 0)); ok {
		t.Fatal("undersized envelope decoded")
	}
}

// TestHardenReliableDelivery is the transport-level resilience oracle: over
// a link that drops, corrupts, and duplicates frames, a hardened session
// still delivers every frame intact, in order, exactly once — both ways.
func TestHardenReliableDelivery(t *testing.T) {
	spec := FaultSpec{Seed: 77, Drop: 0.25, Corrupt: 0.2, Duplicate: 0.2, DeadlineMS: 20000}
	links, err := Faulty{Inner: Chan{Buf: 4}, Spec: spec}.Dial(1)
	if err != nil {
		t.Fatal(err)
	}
	hl := Harden(links[0], spec)
	defer hl.A.Close()
	defer hl.B.Close()
	ctx := context.Background()

	const n = 150
	errc := make(chan error, 1)
	go func() {
		for i := 0; i < n; i++ {
			f, err := hl.B.Recv(ctx)
			if err != nil {
				errc <- fmt.Errorf("recv %d: %w", i, err)
				return
			}
			want := frame(64+i%5, byte(i+1))
			if f.Bits != want.Bits || !bytes.Equal(f.Data, want.Data[:(want.Bits+7)/8]) {
				errc <- fmt.Errorf("frame %d: got %d bits %x, want %d bits %x",
					i, f.Bits, f.Data, want.Bits, want.Data)
				return
			}
			if err := hl.B.Send(ctx, f); err != nil {
				errc <- fmt.Errorf("echo %d: %w", i, err)
				return
			}
		}
		errc <- nil
	}()
	for i := 0; i < n; i++ {
		if err := hl.A.Send(ctx, frame(64+i%5, byte(i+1))); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
		if _, err := hl.A.Recv(ctx); err != nil {
			t.Fatalf("echo recv %d: %v", i, err)
		}
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	rs := hl.A.(ResilienceReporter).Resilience()
	if rs.Retransmits == 0 || rs.FramesLost == 0 || rs.FramesDiscarded == 0 {
		t.Fatalf("fault rates this high must exercise every recovery path: %+v", rs)
	}
	if rs.Retransmits != rs.FramesLost {
		t.Fatalf("every sender-visible loss is retransmitted exactly once on a completed run: %+v", rs)
	}
}

// TestHardenAbortsOnBudget pins the typed failure mode: a link too lossy
// for the retransmit budget surfaces ErrAborted, never a hang.
func TestHardenAbortsOnBudget(t *testing.T) {
	spec := FaultSpec{Seed: 9, Drop: 0.999999, MaxResend: 3}
	links, err := Faulty{Inner: Chan{Buf: 4}, Spec: spec}.Dial(1)
	if err != nil {
		t.Fatal(err)
	}
	hl := Harden(links[0], spec)
	defer hl.A.Close()
	defer hl.B.Close()
	err = hl.A.Send(context.Background(), frame(64, 1))
	if !errors.Is(err, ErrAborted) {
		t.Fatalf("send over drop-everything link: %v, want ErrAborted", err)
	}
	if rs := hl.A.(ResilienceReporter).Resilience(); rs.Retransmits != 3 {
		t.Fatalf("budget of 3 must spend exactly 3 retransmits: %+v", rs)
	}
}

// TestHardenRecvDeadline pins the liveness backstop: a Recv with no peer
// traffic aborts at the configured deadline instead of hanging.
func TestHardenRecvDeadline(t *testing.T) {
	spec := FaultSpec{Drop: 0.1, DeadlineMS: 50}
	links, err := Faulty{Inner: Chan{}, Spec: spec}.Dial(1)
	if err != nil {
		t.Fatal(err)
	}
	hl := Harden(links[0], spec)
	defer hl.A.Close()
	defer hl.B.Close()
	start := time.Now()
	_, err = hl.A.Recv(context.Background())
	if !errors.Is(err, ErrAborted) {
		t.Fatalf("deadline Recv: %v, want ErrAborted", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("deadline took %v", d)
	}
}

// waitGoroutines polls until the goroutine count drops back to the
// baseline (small slack for runtime goroutines), failing the test on
// timeout — the leak assertion used by the close/abort tests.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		n := runtime.NumGoroutine()
		if n <= base {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines leaked: %d, want <= %d\n%s", n, base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestHardenCloseReapsPump pins that closing hardened endpoints — idle,
// mid-traffic, or after an abort — leaks no goroutines.
func TestHardenCloseReapsPump(t *testing.T) {
	base := runtime.NumGoroutine()
	for _, spec := range []FaultSpec{
		{},
		{Seed: 4, Drop: 0.3, Duplicate: 0.2, Corrupt: 0.2},
		{Seed: 5, Disconnect: 0.5},
	} {
		for i := 0; i < 10; i++ {
			links, err := Faulty{Inner: Chan{Buf: 4}, Spec: spec}.Dial(2)
			if err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()
			for _, l := range links {
				h := Harden(l, spec)
				h.A.Send(ctx, frame(64, 1))
				h.B.Send(ctx, frame(64, 2))
				h.A.Close()
				h.B.Close()
			}
		}
	}
	waitGoroutines(t, base)
}

// FuzzFaultyLink is the round-trip oracle over arbitrary fault schedules:
// whatever the rates and seed, a hardened link either delivers exactly the
// sent frame sequence in order, or fails with ErrAborted — never silent
// corruption, reordering, or a hang.
func FuzzFaultyLink(f *testing.F) {
	f.Add(uint64(1), uint8(60), uint8(40), uint8(40), uint8(10), []byte("hello fault injection"))
	f.Add(uint64(7), uint8(0), uint8(0), uint8(0), uint8(0), []byte{0xff, 0x00, 0xff})
	f.Add(uint64(42), uint8(250), uint8(10), uint8(10), uint8(3), []byte("mostly dropped"))
	f.Fuzz(func(t *testing.T, seed uint64, drop, corr, dup, resend uint8, payload []byte) {
		if len(payload) == 0 {
			payload = []byte{0}
		}
		spec := FaultSpec{
			Seed:       seed,
			Drop:       float64(drop) / 256,
			Corrupt:    float64(corr) / 256,
			Duplicate:  float64(dup) / 256,
			MaxResend:  int(resend % 32),
			DeadlineMS: 30000,
		}
		links, err := Faulty{Inner: Chan{Buf: 4}, Spec: spec}.Dial(1)
		if err != nil {
			t.Fatal(err)
		}
		hl := Harden(links[0], spec)
		defer hl.A.Close()
		defer hl.B.Close()
		ctx := context.Background()

		n := 1 + int(seed%8)
		sent := 0
		for i := 0; i < n; i++ {
			chunk := payload[i*len(payload)/n:]
			if len(chunk) > 64 {
				chunk = chunk[:64]
			}
			if len(chunk) == 0 {
				chunk = []byte{byte(i)}
			}
			err := hl.A.Send(ctx, Frame{Bits: 8 * len(chunk), Data: chunk})
			if err != nil {
				if !errors.Is(err, ErrAborted) {
					t.Fatalf("send %d: %v, want nil or ErrAborted", i, err)
				}
				break
			}
			sent++
		}
		for i := 0; i < sent; i++ {
			chunk := payload[i*len(payload)/n:]
			if len(chunk) > 64 {
				chunk = chunk[:64]
			}
			if len(chunk) == 0 {
				chunk = []byte{byte(i)}
			}
			got, err := hl.B.Recv(ctx)
			if err != nil {
				if !errors.Is(err, ErrAborted) && !errors.Is(err, ErrClosed) {
					t.Fatalf("recv %d: %v, want frame, ErrAborted, or ErrClosed", i, err)
				}
				return
			}
			if got.Bits != 8*len(chunk) || !bytes.Equal(got.Data, chunk) {
				t.Fatalf("frame %d: got %d bits %x, want %x", i, got.Bits, got.Data, chunk)
			}
		}
	})
}
