package service

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// HealthInfo fetches the full liveness/readiness payload. Unlike Health
// it decodes the body, so callers see the store backend, resume count,
// and queue snapshot; a draining server (503) still yields its payload
// alongside the error.
func (c *Client) HealthInfo(ctx context.Context) (Health, error) {
	var h Health
	err := c.do(ctx, http.MethodGet, c.url("/healthz"), nil, &h)
	return h, err
}

// TestMetricsEndToEnd scrapes /metrics through the real HTTP handler
// after running a job and checks that series from every layer the job
// exercised are present and moved. Metric state is process-global, so
// the test asserts deltas against a pre-submit scrape rather than
// absolute values.
func TestMetricsEndToEnd(t *testing.T) {
	cl, shutdown := newTestServer(t, Config{Workers: 2})
	defer shutdown()
	ctx := context.Background()

	before, err := cl.Metrics(ctx)
	if err != nil {
		t.Fatalf("pre-submit scrape: %v", err)
	}

	ji, err := cl.Submit(ctx, farJob(96, 3, 11))
	if err != nil {
		t.Fatal(err)
	}
	fin, err := cl.Wait(ctx, ji.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if fin.State != StateDone {
		t.Fatalf("job finished in state %s (%s)", fin.State, fin.Error)
	}

	after, err := cl.Metrics(ctx)
	if err != nil {
		t.Fatalf("post-job scrape: %v", err)
	}

	// Counters that must have advanced by exactly this job's work.
	wantDelta := []struct {
		name string
		min  float64
	}{
		{"tricomm_service_jobs_submitted_total", 1},
		{"tricomm_service_trials_run_total", 3},
		{"tricomm_service_trial_seconds", 3}, // histogram: _count+_sum+buckets all grow
		{"tricomm_engine_sessions_total", 3},
		{"tricomm_engine_bits_total", 1},
	}
	for _, w := range wantDelta {
		d := after.Total(w.name) - before.Total(w.name)
		if d < w.min {
			t.Errorf("%s advanced by %v, want >= %v", w.name, d, w.min)
		}
	}

	// Families that must simply exist on any scrape: one per layer plus
	// the runtime gauges benchtable/tricommd register at startup. The
	// runtime family is registered by obs.RegisterRuntime, which the
	// service does not call — it belongs to main() — so here we only
	// require the three instrumented layers.
	for _, name := range []string{
		"tricomm_service_queue_depth",
		"tricomm_service_jobs_retained",
		"tricomm_engine_session_seconds",
		"tricomm_transport_wire_bytes_total",
	} {
		if !after.Has(name) {
			t.Errorf("family %s missing from /metrics", name)
		}
	}
	if after.Series() < 25 {
		t.Errorf("only %d series exposed after a job, want >= 25", after.Series())
	}
}

// TestHealthEndpoint covers the enriched /healthz payload: readiness and
// store identity while serving, and a 503 with ready=false once the
// server is closed.
func TestHealthEndpoint(t *testing.T) {
	s := New(Config{Workers: 1})
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()
	cl := &Client{Base: hs.URL, HTTP: hs.Client()}
	ctx := context.Background()

	h, err := cl.HealthInfo(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !h.OK || !h.Ready {
		t.Fatalf("live server reports %+v", h)
	}
	if h.Store != "mem" || h.DBPath != "" {
		t.Fatalf("mem-backed server reports store=%q db_path=%q", h.Store, h.DBPath)
	}
	if h.Goroutines <= 0 || h.UptimeMS < 0 {
		t.Fatalf("implausible runtime fields: %+v", h)
	}

	s.Close()

	// Raw GET: the client's retry policy would keep retrying a 503.
	resp, err := hs.Client().Get(hs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("closed server /healthz = %d, want 503 (body %s)", resp.StatusCode, body)
	}
	var closedHealth Health
	if err := json.Unmarshal(body, &closedHealth); err != nil {
		t.Fatalf("closed /healthz body %q: %v", body, err)
	}
	if closedHealth.Ready || !closedHealth.OK {
		t.Fatalf("closed server reports %+v", closedHealth)
	}
}

// TestHealthFileStore pins that a disk-backed server names its backend
// and path in /healthz.
func TestHealthFileStore(t *testing.T) {
	path := t.TempDir() + "/jobs.db"
	fs, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	cl, shutdown := newTestServer(t, Config{Workers: 1, Store: fs})
	defer shutdown()

	h, err := cl.HealthInfo(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if h.Store != "file" || h.DBPath != path {
		t.Fatalf("file-backed server reports store=%q db_path=%q, want file %q", h.Store, h.DBPath, path)
	}
}
