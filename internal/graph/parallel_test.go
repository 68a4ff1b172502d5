package graph

import (
	"bytes"
	"log/slog"
	"math/rand"
	"runtime"
	"testing"
	"time"
)

func TestWorkersResolution(t *testing.T) {
	if got := Workers(3); got != 3 {
		t.Fatalf("explicit 3: got %d", got)
	}
	t.Setenv(workersEnv, "6")
	if got := Workers(0); got != 6 {
		t.Fatalf("env 6: got %d", got)
	}
	if got := Workers(2); got != 2 {
		t.Fatalf("explicit beats env: got %d", got)
	}
	t.Setenv(workersEnv, "")
	if got := Workers(0); got != 1 {
		t.Fatalf("default: got %d", got)
	}
}

// TestWorkersInvalidEnvWarnsOnce is the regression test for the resolver
// silently ignoring an unparseable TRICOMM_INTRA_WORKERS: it must fall
// back to 1 and warn exactly once per process.
func TestWorkersInvalidEnvWarnsOnce(t *testing.T) {
	var buf bytes.Buffer
	prev := slog.Default()
	slog.SetDefault(slog.New(slog.NewTextHandler(&buf, nil)))
	defer slog.SetDefault(prev)

	for _, bad := range []string{"bogus", "0", "-2", "3.5"} {
		envWarned.Store(false)
		buf.Reset()
		t.Setenv(workersEnv, bad)
		if got := Workers(0); got != 1 {
			t.Fatalf("env %q: got %d workers, want 1", bad, got)
		}
		if !bytes.Contains(buf.Bytes(), []byte(workersEnv)) {
			t.Fatalf("env %q: no warning logged", bad)
		}
		// A second resolution must not warn again.
		buf.Reset()
		if got := Workers(0); got != 1 {
			t.Fatalf("env %q second call: got %d workers", bad, got)
		}
		if buf.Len() != 0 {
			t.Fatalf("env %q: warned twice: %s", bad, buf.String())
		}
	}
}

// TestSearchLeavesNoGoroutine requires each search to join every
// goroutine it starts. A goroutine exits just after it signals done, so
// the count is polled for up to a second. Width 64 is the clamp, wider
// than any search earlier tests in this package make.
func TestSearchLeavesNoGoroutine(t *testing.T) {
	g := ErdosRenyi(512, 0.05, rand.New(rand.NewSource(9)))
	for _, w := range []int{8, 64} {
		before := runtime.NumGoroutine()
		g.FindTriangleN(w)
		g.CountTrianglesN(w)
		deadline := time.Now().Add(time.Second)
		for runtime.NumGoroutine() > before {
			if time.Now().After(deadline) {
				t.Fatalf("width %d: %d goroutines after the searches, %d before", w, runtime.NumGoroutine(), before)
			}
			time.Sleep(time.Millisecond)
		}
	}
}

// allocBytes reports the heap bytes f allocates.
func allocBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestSearchWidthIsClamped pins that a huge width request searches at
// the clamp: the serial answers, and no more memory than at width 64.
// Sizing the chunk table by the request allocated 67 MB at width 2^20
// on this 64-vertex graph.
func TestSearchWidthIsClamped(t *testing.T) {
	g := ErdosRenyi(64, 0.2, rand.New(rand.NewSource(5)))
	wantCount := g.CountTriangles()
	wantTri, wantOk := g.FindTriangle()
	const huge = 1 << 20
	if got := g.CountTrianglesN(huge); got != wantCount {
		t.Fatalf("CountTrianglesN(%d) = %d, want %d", huge, got, wantCount)
	}
	if tri, ok := g.FindTriangleN(huge); tri != wantTri || ok != wantOk {
		t.Fatalf("FindTriangleN(%d) = (%v, %v), want (%v, %v)", huge, tri, ok, wantTri, wantOk)
	}
	const slack = 64 << 10
	for _, k := range []struct {
		name   string
		search func(workers int)
	}{
		{"CountTrianglesN", func(w int) { g.CountTrianglesN(w) }},
		{"FindTriangleN", func(w int) { g.FindTriangleN(w) }},
	} {
		at64 := allocBytes(func() { k.search(64) })
		atHuge := allocBytes(func() { k.search(huge) })
		if atHuge > at64+slack {
			t.Fatalf("%s allocates %d bytes at width %d, %d at width 64", k.name, atHuge, huge, at64)
		}
	}
}
