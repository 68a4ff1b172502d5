package transport

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"testing"
	"time"
)

// dialers returns every transport under test. The contract suite runs each
// through identical scenarios — behavior differences between transports
// are bugs, not features.
func dialers() []Dialer {
	return []Dialer{
		Chan{},
		Net{},
		Net{TCP: true},
		WAN{Latency: 50 * time.Microsecond, Jitter: 50 * time.Microsecond, Bandwidth: 1 << 30, Seed: 7},
		Faulty{Inner: Chan{}}, // disabled spec: must behave as a pass-through
	}
}

func frame(bits int, pattern byte) Frame {
	nb := (bits + 7) / 8
	data := bytes.Repeat([]byte{pattern}, nb)
	if pad := 8*nb - bits; pad > 0 && nb > 0 {
		data[nb-1] &^= byte(1<<pad - 1)
	}
	return Frame{Bits: bits, Data: data}
}

func closeLinks(links []Link) {
	for _, l := range links {
		l.A.Close()
		l.B.Close()
	}
}

// TestConnRoundTrip sends frames of assorted sizes both ways on every
// transport and checks contents and byte counters.
func TestConnRoundTrip(t *testing.T) {
	sizes := []int{0, 1, 13, 64, 300, 4097}
	for _, d := range dialers() {
		t.Run(d.Name(), func(t *testing.T) {
			links, err := d.Dial(2)
			if err != nil {
				t.Fatal(err)
			}
			defer closeLinks(links)
			ctx := context.Background()
			l := links[1]
			var wantBytes int64
			for i, bits := range sizes {
				f := frame(bits, byte(0x11*(i+1)))
				if err := l.A.Send(ctx, f); err != nil {
					t.Fatalf("A.Send(%d bits): %v", bits, err)
				}
				got, err := l.B.Recv(ctx)
				if err != nil {
					t.Fatalf("B.Recv(%d bits): %v", bits, err)
				}
				if got.Bits != f.Bits || !bytes.Equal(got.Data[:(bits+7)/8], f.Data[:(bits+7)/8]) {
					t.Fatalf("frame %d: got %d bits %x, want %d bits %x", i, got.Bits, got.Data, f.Bits, f.Data)
				}
				// Echo it back.
				if err := l.B.Send(ctx, got); err != nil {
					t.Fatalf("B.Send: %v", err)
				}
				if _, err := l.A.Recv(ctx); err != nil {
					t.Fatalf("A.Recv: %v", err)
				}
				wantBytes += int64(FrameSize(bits))
			}
			as, bs := l.A.Stats(), l.B.Stats()
			if as.BytesOut != wantBytes || as.BytesIn != wantBytes ||
				bs.BytesOut != wantBytes || bs.BytesIn != wantBytes {
				t.Fatalf("byte counters: A=%+v B=%+v, want %d each way", as, bs, wantBytes)
			}
			if as.FramesOut != int64(len(sizes)) || bs.FramesIn != int64(len(sizes)) {
				t.Fatalf("frame counters: A=%+v B=%+v", as, bs)
			}
		})
	}
}

// TestConnCloseUnblocksPeer pins the teardown contract: closing one
// endpoint makes the peer's blocked Recv return ErrClosed, after draining
// any frame already sent.
func TestConnCloseUnblocksPeer(t *testing.T) {
	for _, d := range dialers() {
		t.Run(d.Name(), func(t *testing.T) {
			links, err := d.Dial(1)
			if err != nil {
				t.Fatal(err)
			}
			l := links[0]
			ctx := context.Background()

			// One frame in flight, then close: the peer must still get it.
			if err := l.A.Send(ctx, frame(16, 0xaa)); err != nil {
				t.Fatal(err)
			}
			l.A.Close()
			deadline := time.Now().Add(5 * time.Second)
			got := false
			for time.Now().Before(deadline) {
				f, err := l.B.Recv(ctx)
				if err == nil {
					if f.Bits != 16 {
						t.Fatalf("drained frame has %d bits", f.Bits)
					}
					got = true
					continue
				}
				if !errors.Is(err, ErrClosed) {
					t.Fatalf("Recv after peer close: %v, want ErrClosed", err)
				}
				break
			}
			if !got {
				t.Fatal("in-flight frame lost at close")
			}
			// Sends toward a closed peer must eventually fail with ErrClosed
			// rather than blocking forever (a few may be absorbed by
			// transport and kernel buffers first).
			sctx, scancel := context.WithTimeout(ctx, 5*time.Second)
			for {
				err := l.B.Send(sctx, frame(8, 1))
				if err != nil {
					if !errors.Is(err, ErrClosed) {
						t.Fatalf("Send to closed peer: %v, want ErrClosed", err)
					}
					break
				}
				time.Sleep(time.Millisecond)
			}
			scancel()
			l.B.Close()
			if _, err := l.B.Recv(ctx); !errors.Is(err, ErrClosed) {
				t.Fatalf("Recv on closed endpoint: %v, want ErrClosed", err)
			}
		})
	}
}

// TestConnContextCancel pins that a canceled context unblocks a parked
// Recv and a blocked Send with the context's error, not ErrClosed.
func TestConnContextCancel(t *testing.T) {
	for _, d := range dialers() {
		t.Run(d.Name(), func(t *testing.T) {
			links, err := d.Dial(1)
			if err != nil {
				t.Fatal(err)
			}
			defer closeLinks(links)
			l := links[0]

			ctx, cancel := context.WithCancel(context.Background())
			done := make(chan error, 1)
			go func() {
				_, err := l.B.Recv(ctx)
				done <- err
			}()
			time.Sleep(10 * time.Millisecond)
			cancel()
			select {
			case err := <-done:
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("Recv under cancel: %v, want context.Canceled", err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("cancel did not unblock Recv")
			}
		})
	}
}

// TestConnPipelining pins the buffering contract every transport must
// provide: a Send completes without the peer ever calling Recv (at least
// one frame per direction), so request/reply rounds can pipeline.
func TestConnPipelining(t *testing.T) {
	for _, d := range dialers() {
		t.Run(d.Name(), func(t *testing.T) {
			links, err := d.Dial(1)
			if err != nil {
				t.Fatal(err)
			}
			defer closeLinks(links)
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			if err := links[0].A.Send(ctx, frame(64, 0x3c)); err != nil {
				t.Fatalf("buffered Send blocked or failed: %v", err)
			}
			if err := links[0].B.Send(ctx, frame(64, 0xc3)); err != nil {
				t.Fatalf("reverse buffered Send blocked or failed: %v", err)
			}
		})
	}
}

// TestWANDeterministicDelays pins the simulated-WAN determinism story: the
// same seed replays the same jitter sequence, a different seed does not.
func TestWANDeterministicDelays(t *testing.T) {
	seq := func(seed uint64) []time.Duration {
		w := WAN{Latency: time.Millisecond, Jitter: time.Millisecond, Bandwidth: 1 << 20, Seed: seed}
		state := seed
		out := make([]time.Duration, 8)
		for i := range out {
			out[i] = w.delay(64*(i+1), &state)
		}
		return out
	}
	a, b := seq(42), seq(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("delay %d diverged under one seed: %v vs %v", i, a[i], b[i])
		}
		if a[i] < time.Millisecond {
			t.Fatalf("delay %d below base latency: %v", i, a[i])
		}
	}
	c := seq(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical jitter")
	}
}

// TestNetDialPairsLinks checks the TCP preamble pairing: traffic sent on
// link j's A endpoint arrives at link j's B endpoint, for every j.
func TestNetDialPairsLinks(t *testing.T) {
	const k = 5
	links, err := Net{TCP: true}.Dial(k)
	if err != nil {
		t.Fatal(err)
	}
	defer closeLinks(links)
	ctx := context.Background()
	for j, l := range links {
		f := frame(32, byte(j+1))
		if err := l.A.Send(ctx, f); err != nil {
			t.Fatal(err)
		}
	}
	for j, l := range links {
		got, err := l.B.Recv(ctx)
		if err != nil {
			t.Fatal(err)
		}
		want := frame(32, byte(j+1))
		if !bytes.Equal(got.Data, want.Data) {
			t.Fatalf("link %d received %x, want %x (links crossed)", j, got.Data, want.Data)
		}
	}
}

// TestDialerNames pins the names reports use.
func TestDialerNames(t *testing.T) {
	for _, tc := range []struct {
		d    Dialer
		want string
	}{
		{Chan{}, "chan"}, {Net{}, "pipe"}, {Net{TCP: true}, "tcp"}, {WAN{}, "wan"},
		{Faulty{}, "faulty+chan"}, {Faulty{Inner: WAN{}}, "faulty+wan"},
	} {
		if got := tc.d.Name(); got != tc.want {
			t.Errorf("Name() = %q, want %q", got, tc.want)
		}
	}
}

// TestNetRecvCancelNoPoison is the regression test for the read-deadline
// race: a Recv canceled via its context used to leave the poison deadline
// (time.Unix(1, 0)) armed on the socket, so the *next* Recv — if called
// with a context that has no done channel — failed instantly with
// ErrClosed instead of reading the peer's frame.
func TestNetRecvCancelNoPoison(t *testing.T) {
	for _, d := range []Dialer{Net{}, Net{TCP: true}} {
		t.Run(d.Name(), func(t *testing.T) {
			links, err := d.Dial(1)
			if err != nil {
				t.Fatal(err)
			}
			defer closeLinks(links)
			l := links[0]

			// Cancel a blocked Recv: the poisoning callback definitely runs.
			ctx, cancel := context.WithCancel(context.Background())
			done := make(chan error, 1)
			go func() {
				_, err := l.B.Recv(ctx)
				done <- err
			}()
			time.Sleep(20 * time.Millisecond)
			cancel()
			if err := <-done; !errors.Is(err, context.Canceled) {
				t.Fatalf("canceled Recv: %v, want context.Canceled", err)
			}

			// The next read, with a non-cancellable context, must see the
			// frame — not the canceled Recv's leftover deadline.
			if err := l.A.Send(context.Background(), frame(24, 0x42)); err != nil {
				t.Fatal(err)
			}
			f, err := l.B.Recv(context.Background())
			if err != nil {
				t.Fatalf("Recv after canceled Recv: %v (poisoned read deadline)", err)
			}
			if f.Bits != 24 {
				t.Fatalf("got %d bits, want 24", f.Bits)
			}

			// Same with a successful cancellable Recv racing its own cancel:
			// run a few rounds so a late AfterFunc would be caught.
			for i := 0; i < 20; i++ {
				rctx, rcancel := context.WithCancel(context.Background())
				if err := l.A.Send(context.Background(), frame(16, byte(i))); err != nil {
					t.Fatal(err)
				}
				if _, err := l.B.Recv(rctx); err != nil {
					t.Fatalf("round %d: %v", i, err)
				}
				rcancel() // may race the deferred stop() inside Recv
				if err := l.A.Send(context.Background(), frame(16, byte(i))); err != nil {
					t.Fatal(err)
				}
				if _, err := l.B.Recv(context.Background()); err != nil {
					t.Fatalf("round %d, plain Recv after cancel: %v", i, err)
				}
			}
		})
	}
}

// TestConnAbruptCloseNoLeak pins that an abrupt peer close — one side
// closes while the other is parked in Recv — unblocks the survivor and
// leaks no goroutines on the socket and WAN transports (the ones that run
// internal goroutines per endpoint).
func TestConnAbruptCloseNoLeak(t *testing.T) {
	for _, d := range dialers() {
		t.Run(d.Name(), func(t *testing.T) {
			base := runtime.NumGoroutine()
			for i := 0; i < 5; i++ {
				links, err := d.Dial(2)
				if err != nil {
					t.Fatal(err)
				}
				ctx := context.Background()
				done := make(chan struct{})
				go func() {
					defer close(done)
					// Parked receiver: must be unblocked by the peer close.
					links[0].B.Recv(ctx)
				}()
				links[0].A.Send(ctx, frame(64, 1))
				links[1].A.Send(ctx, frame(64, 2))
				links[0].A.Close() // abrupt: peer still parked in Recv
				select {
				case <-done:
				case <-time.After(5 * time.Second):
					t.Fatal("peer close did not unblock Recv")
				}
				closeLinks(links)
			}
			waitGoroutines(t, base)
		})
	}
}

// TestFrameSizeMatchesEncoding cross-checks the arithmetic byte counter
// (used by the in-process transports) against the real encoder (used by
// the socket transports) — the property that makes WireBytes comparable
// across transports.
func TestFrameSizeMatchesEncoding(t *testing.T) {
	for _, bits := range []int{0, 1, 8, 9, 127, 128, 1000, 1 << 16} {
		f := frame(bits, 0xff)
		if got, want := FrameSize(bits), len(AppendFrame(nil, f)); got != want {
			t.Errorf("FrameSize(%d) = %d, encoder produced %d", bits, got, want)
		}
	}
}
