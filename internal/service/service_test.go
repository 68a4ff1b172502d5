package service

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"tricomm"
	"tricomm/internal/harness/runner"
	"tricomm/internal/scenario"
)

// newTestServer starts a Server behind an httptest listener and returns a
// client for it plus a shutdown func.
func newTestServer(t *testing.T, cfg Config) (*Client, func()) {
	t.Helper()
	s := New(cfg)
	hs := httptest.NewServer(s.Handler())
	hc := hs.Client()
	cl := &Client{Base: hs.URL, HTTP: hc}
	return cl, func() {
		hs.Close()
		s.Close()
		hc.CloseIdleConnections()
	}
}

func farJob(n int, trials int, seed uint64) JobSpec {
	return JobSpec{
		Graph:       GraphSpec{Kind: "far", Spec: scenario.Spec{N: n, D: 6, Eps: 0.25}},
		K:           3,
		Protocol:    "sim-oblivious",
		Eps:         0.25,
		KnownDegree: true,
		Trials:      trials,
		Seed:        seed,
	}
}

// TestSubmitAndWait covers the basic lifecycle: submit, poll, summary.
func TestSubmitAndWait(t *testing.T) {
	cl, shutdown := newTestServer(t, Config{Workers: 2})
	defer shutdown()
	ctx := context.Background()

	ji, err := cl.Submit(ctx, farJob(96, 3, 7))
	if err != nil {
		t.Fatal(err)
	}
	if ji.ID == "" || (ji.State != StateQueued && ji.State != StateRunning) {
		t.Fatalf("submit returned %+v", ji)
	}
	fin, err := cl.Wait(ctx, ji.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if fin.State != StateDone {
		t.Fatalf("job finished in state %s (%s)", fin.State, fin.Error)
	}
	if fin.TrialsDone != 3 || len(fin.Results) != 3 || fin.Summary == nil {
		t.Fatalf("incomplete results: %+v", fin)
	}
	for i, r := range fin.Results {
		if r.Trial != i || r.Seed != runner.TrialSeed(7, i) {
			t.Fatalf("trial %d has index %d seed %d", i, r.Trial, r.Seed)
		}
		if r.Bits <= 0 {
			t.Fatalf("trial %d reports %d bits", i, r.Bits)
		}
	}
}

// TestTrialOutcomesReproducible pins the determinism contract the API
// advertises: regenerating a trial's instance from its reported seed and
// running the same options locally reproduces the exact outcome.
func TestTrialOutcomesReproducible(t *testing.T) {
	cl, shutdown := newTestServer(t, Config{Workers: 1})
	defer shutdown()
	ctx := context.Background()

	spec := farJob(128, 4, 21)
	spec.Protocol = "interactive"
	spec.Transport = "tcp"
	ji, err := cl.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	fin, err := cl.Wait(ctx, ji.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if fin.State != StateDone {
		t.Fatalf("job failed: %s", fin.Error)
	}
	for _, r := range fin.Results {
		g, _ := tricomm.FarGraph(128, 6, 0.25, int64(r.Seed))
		clu, err := tricomm.Split(g, 3, tricomm.SplitDisjoint, r.Seed)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := clu.Test(ctx, tricomm.Options{
			Protocol: tricomm.Interactive, Eps: 0.25, AvgDegree: g.AvgDegree(),
		})
		if err != nil {
			t.Fatal(err)
		}
		if rep.TriangleFree != r.TriangleFree || rep.Bits != r.Bits || rep.Rounds != r.Rounds {
			t.Fatalf("trial %d not reproducible: daemon %+v vs local %+v", r.Trial, r, rep)
		}
		if !rep.TriangleFree {
			if w := rep.Witness; r.Witness == nil || *r.Witness != [3]int{w.A, w.B, w.C} {
				t.Fatalf("trial %d witness mismatch: %v vs %v", r.Trial, r.Witness, rep.Witness)
			}
		}
	}
}

// TestStreamDeliversTrialsThenFinal covers the NDJSON stream: every trial
// in order, then the final envelope.
func TestStreamDeliversTrialsThenFinal(t *testing.T) {
	cl, shutdown := newTestServer(t, Config{Workers: 1})
	defer shutdown()
	ctx := context.Background()

	ji, err := cl.Submit(ctx, farJob(96, 5, 3))
	if err != nil {
		t.Fatal(err)
	}
	var seen []int
	fin, err := cl.Stream(ctx, ji.ID, func(o TrialOutcome) error {
		seen = append(seen, o.Trial)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if fin.State != StateDone {
		t.Fatalf("stream final state %s (%s)", fin.State, fin.Error)
	}
	if len(seen) != 5 {
		t.Fatalf("streamed %d trials, want 5 (%v)", len(seen), seen)
	}
	for i, tr := range seen {
		if tr != i {
			t.Fatalf("stream out of order: %v", seen)
		}
	}
}

// TestUploadedEdgesAndCheck covers the edge-list kind plus the ground
// truth flag, with an instance whose answer is known exactly.
func TestUploadedEdgesAndCheck(t *testing.T) {
	cl, shutdown := newTestServer(t, Config{Workers: 1})
	defer shutdown()
	ctx := context.Background()

	// A triangle plus a pendant edge; the exact protocol must find it.
	spec := JobSpec{
		Graph:    GraphSpec{Kind: "edges", Spec: scenario.Spec{N: 8}, Edges: [][2]int{{0, 1}, {1, 2}, {0, 2}, {3, 4}}},
		K:        2,
		Protocol: "exact",
		Trials:   2,
		Check:    true,
	}
	ji, err := cl.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	fin, err := cl.Wait(ctx, ji.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if fin.State != StateDone {
		t.Fatalf("job failed: %s", fin.Error)
	}
	for _, r := range fin.Results {
		if r.TriangleFree {
			t.Fatalf("exact protocol missed the triangle: %+v", r)
		}
		if r.HasTriangle == nil || !*r.HasTriangle {
			t.Fatalf("ground truth missing or wrong: %+v", r)
		}
		if r.Witness == nil || *r.Witness != [3]int{0, 1, 2} {
			t.Fatalf("witness %v, want (0,1,2)", r.Witness)
		}
	}
}

// TestSelfLoopEdgesRejected is the regression test for the self-loop
// hole: kind "edges" used to accept e[0]==e[1] pairs and silently drop
// them at build time; they must be rejected at validation with a clear
// error instead.
func TestSelfLoopEdgesRejected(t *testing.T) {
	cl, shutdown := newTestServer(t, Config{Workers: 1})
	defer shutdown()
	spec := JobSpec{
		Graph:    GraphSpec{Kind: "edges", Spec: scenario.Spec{N: 8}, Edges: [][2]int{{0, 1}, {3, 3}}},
		Protocol: "exact",
	}
	_, err := cl.Submit(context.Background(), spec)
	if err == nil {
		t.Fatal("self-loop edge accepted")
	}
	if !strings.Contains(err.Error(), "self-loop") {
		t.Fatalf("rejection does not name the self-loop: %v", err)
	}
}

// TestLegacyGraphSpecJSONDecodesUnchanged pins byte-compatibility for
// pre-scenario payloads: the historical {"kind", "n", "d", "eps"} and
// {"kind": "edges", ...} shapes must decode into the same validated specs
// they always did, via the embedded scenario.Spec fields.
func TestLegacyGraphSpecJSONDecodesUnchanged(t *testing.T) {
	cases := []struct {
		payload string
		check   func(GraphSpec) bool
	}{
		{`{"kind":"far","n":512,"d":8,"eps":0.25}`, func(g GraphSpec) bool {
			return g.Kind == "far" && g.N == 512 && g.D == 8 && g.Eps == 0.25 && g.Validate() == nil
		}},
		{`{"kind":"random","n":256,"d":4}`, func(g GraphSpec) bool {
			return g.Kind == "random" && g.N == 256 && g.D == 4 && g.Validate() == nil
		}},
		{`{"kind":"bipartite","n":128,"d":6}`, func(g GraphSpec) bool {
			return g.Kind == "bipartite" && g.N == 128 && g.D == 6 && g.Validate() == nil
		}},
		{`{"kind":"edges","n":4,"edges":[[0,1],[1,2]]}`, func(g GraphSpec) bool {
			return g.Kind == "edges" && g.N == 4 && len(g.Edges) == 2 && g.Validate() == nil
		}},
		// The new shape decodes through the same struct.
		{`{"family":"chung-lu","n":256,"alpha":2.5}`, func(g GraphSpec) bool {
			return g.Family == "chung-lu" && g.N == 256 && g.Validate() == nil
		}},
	}
	for _, tc := range cases {
		var g GraphSpec
		if err := json.Unmarshal([]byte(tc.payload), &g); err != nil {
			t.Fatalf("decode %s: %v", tc.payload, err)
		}
		if !tc.check(g) {
			t.Fatalf("payload %s decoded to %+v", tc.payload, g)
		}
	}
	// Conflicting kind/family must be rejected, not silently resolved.
	var g GraphSpec
	if err := json.Unmarshal([]byte(`{"kind":"far","family":"random","n":64,"d":4}`), &g); err != nil {
		t.Fatal(err)
	}
	if g.Validate() == nil {
		t.Fatal("conflicting kind/family accepted")
	}
}

// TestScenarioJobsOverHTTP runs a registry family — including one that
// prescribes its own player assignment — through the full HTTP job path.
func TestScenarioJobsOverHTTP(t *testing.T) {
	cl, shutdown := newTestServer(t, Config{Workers: 2})
	defer shutdown()
	ctx := context.Background()

	for _, spec := range []JobSpec{
		{Graph: GraphSpec{Spec: scenario.Spec{Family: "behrend-blowup", M: 6, Blowup: 2}},
			Protocol: "exact", Trials: 2, Check: true},
		{Graph: GraphSpec{Spec: scenario.Spec{Family: "dup-adversary", N: 256, D: 8, Eps: 0.2, K: 6}},
			K:        8, // superseded: the family prescribes its own 6-player assignment
			Protocol: "sim-oblivious", Eps: 0.2, Trials: 2, Check: true},
	} {
		ji, err := cl.Submit(ctx, spec)
		if err != nil {
			t.Fatal(err)
		}
		fin, err := cl.Wait(ctx, ji.ID, 10*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		if fin.State != StateDone {
			t.Fatalf("scenario job failed: %s", fin.Error)
		}
		// Both scenarios are certified far: the instances really contain
		// triangles, and the echoed spec must be canonical.
		for _, r := range fin.Results {
			if r.HasTriangle == nil || !*r.HasTriangle {
				t.Fatalf("certified-far instance reports no triangle: %+v", r)
			}
		}
		if fin.Spec.Graph.N == 0 {
			t.Fatalf("echoed spec not canonicalized: %+v", fin.Spec.Graph)
		}
		// When the family prescribes the assignment, the echoed job K must
		// report the player count actually run, not the submitted one.
		if fin.Spec.Graph.K > 0 && fin.Spec.K != fin.Spec.Graph.K {
			t.Fatalf("echoed K=%d but the prescribed assignment has k=%d", fin.Spec.K, fin.Spec.Graph.K)
		}
	}
}

// Scenarios fetches the server's scenario-family catalog.
func (c *Client) Scenarios(ctx context.Context) ([]ScenarioInfo, error) {
	var out []ScenarioInfo
	err := c.do(ctx, http.MethodGet, c.url("/v1/scenarios"), nil, &out)
	return out, err
}

// TestScenarioCatalogEndpoint covers GET /v1/scenarios: one entry per
// registry family, each with a usable canonical example.
func TestScenarioCatalogEndpoint(t *testing.T) {
	cl, shutdown := newTestServer(t, Config{Workers: 1})
	defer shutdown()
	cat, err := cl.Scenarios(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(cat) != len(scenario.Names()) {
		t.Fatalf("catalog lists %d families, registry has %d", len(cat), len(scenario.Names()))
	}
	for _, info := range cat {
		if info.Doc == "" || info.Params == "" {
			t.Fatalf("entry %s incomplete: %+v", info.Family, info)
		}
		if _, err := scenario.Parse(info.Example); err != nil {
			t.Fatalf("example for %s does not parse: %v", info.Family, err)
		}
	}
}

// TestSubmitValidation covers API-level rejection.
func TestSubmitValidation(t *testing.T) {
	cl, shutdown := newTestServer(t, Config{Workers: 1})
	defer shutdown()
	ctx := context.Background()
	bad := []JobSpec{
		{Graph: GraphSpec{Kind: "far", Spec: scenario.Spec{N: -1}}},
		{Graph: GraphSpec{Kind: "nope", Spec: scenario.Spec{N: 8}}},
		{Graph: GraphSpec{Kind: "far", Spec: scenario.Spec{N: 8, D: 4}}, Protocol: "nope"},
		{Graph: GraphSpec{Kind: "far", Spec: scenario.Spec{N: 8, D: 4}}, Partition: "nope"},
		{Graph: GraphSpec{Kind: "far", Spec: scenario.Spec{N: 8, D: 4}}, Transport: "nope"},
		{Graph: GraphSpec{Kind: "edges", Spec: scenario.Spec{N: 4}, Edges: [][2]int{{0, 9}}}},
		{Graph: GraphSpec{Kind: "far", Spec: scenario.Spec{N: 8, D: 4}}, Trials: MaxTrials + 1},
	}
	for i, spec := range bad {
		if _, err := cl.Submit(ctx, spec); err == nil {
			t.Errorf("bad spec %d accepted", i)
		}
	}
	if _, err := cl.Job(ctx, "job-does-not-exist"); err == nil ||
		!strings.Contains(err.Error(), "404") {
		t.Errorf("missing job: err = %v, want 404", err)
	}
}

// TestSmoke1000JobsNoGoroutineLeak is the acceptance smoke test: a
// long-lived daemon must sustain 1000 sequential job submissions over real
// HTTP without accumulating goroutines (each job runs full protocol
// sessions, whose engine joins every goroutine it spawns).
func TestSmoke1000JobsNoGoroutineLeak(t *testing.T) {
	const jobs = 1000
	cl, shutdown := newTestServer(t, Config{Workers: 2, QueueDepth: 8})
	ctx := context.Background()

	// Warm up the HTTP stack and worker pool before baselining.
	warm, err := cl.Submit(ctx, farJob(32, 1, 999))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Wait(ctx, warm.ID, 5*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()

	found := 0
	for i := 0; i < jobs; i++ {
		spec := farJob(32, 1, uint64(i+1))
		if i%5 == 0 {
			spec.Protocol = "exact" // mix a coordinator-model protocol in
		}
		ji, err := cl.Submit(ctx, spec)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		fin, err := cl.Wait(ctx, ji.ID, time.Millisecond)
		if err != nil {
			t.Fatalf("wait %d: %v", i, err)
		}
		if fin.State != StateDone {
			t.Fatalf("job %d failed: %s", i, fin.Error)
		}
		if fin.Summary.Found > 0 {
			found++
		}
	}
	if found == 0 {
		t.Fatal("no job found a triangle on ε-far instances — something is off")
	}

	// Goroutine count must settle back to (about) the baseline: allow a
	// small slack for HTTP keep-alive conns parked between requests.
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		after := runtime.NumGoroutine()
		if after <= before+5 {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: %d before, %d after %d jobs\n%s",
				before, after, jobs, buf[:n])
		}
		time.Sleep(50 * time.Millisecond)
	}
	shutdown()
}

// TestCloseDrainsWorkers pins that Close returns with no workers left and
// marks jobs it interrupted as failed rather than leaving them running.
func TestCloseDrainsWorkers(t *testing.T) {
	s := New(Config{Workers: 2, QueueDepth: 32})
	// Enqueue more slow jobs than workers.
	var ids []string
	for i := 0; i < 6; i++ {
		ji, err := s.Submit(farJob(256, 50, uint64(i+1)))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, ji.ID)
	}
	time.Sleep(20 * time.Millisecond)
	s.Close()
	// After Close every job must be in a terminal state or still queued —
	// but none may be running.
	for _, id := range ids {
		ji, err := s.Job(id, false)
		if err != nil {
			t.Fatal(err)
		}
		if ji.State == StateRunning {
			t.Fatalf("job %s still running after Close", id)
		}
	}
	if _, err := s.Submit(farJob(32, 1, 1)); err == nil {
		t.Fatal("Submit accepted after Close")
	}
}

// TestQueueBackpressure pins ErrBusy beyond QueueDepth.
func TestQueueBackpressure(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 2})
	defer s.Close()
	// One slow job occupies the worker; then fill the queue.
	if _, err := s.Submit(farJob(512, 200, 1)); err != nil {
		t.Fatal(err)
	}
	busy := false
	for i := 0; i < 2+2; i++ {
		if _, err := s.Submit(farJob(32, 1, uint64(i+2))); err != nil {
			if !errors.Is(err, ErrBusy) {
				t.Fatalf("unexpected submit error: %v", err)
			}
			busy = true
		}
	}
	if !busy {
		t.Fatal("queue never reported ErrBusy")
	}
}
