package service

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"tricomm/internal/scenario"
)

// faultyJob is an interactive-protocol job (the only protocol whose frames
// cross transport links, hence the only one faults can touch).
func faultyJob(trials int, seed uint64, faults string) JobSpec {
	return JobSpec{
		Graph:       GraphSpec{Kind: "far", Spec: scenario.Spec{N: 128, D: 6, Eps: 0.25}},
		K:           3,
		Protocol:    "interactive",
		Eps:         0.25,
		KnownDegree: true,
		Trials:      trials,
		Seed:        seed,
		Faults:      faults,
	}
}

// TestFaultedJobCompletesIdentical pins the service half of the resilience
// contract: a job run over a survivable fault schedule lands in StateDone
// with per-trial verdicts and bit counts identical to the fault-free job,
// and the loss shows up only in the resilience counters.
func TestFaultedJobCompletesIdentical(t *testing.T) {
	cl, shutdown := newTestServer(t, Config{Workers: 1})
	defer shutdown()
	ctx := context.Background()

	clean, err := cl.Submit(ctx, faultyJob(3, 5, ""))
	if err != nil {
		t.Fatal(err)
	}
	base, err := cl.Wait(ctx, clean.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if base.State != StateDone {
		t.Fatalf("fault-free job finished %s: %s", base.State, base.Error)
	}

	ji, err := cl.Submit(ctx, faultyJob(3, 5, `{"drop":0.15,"corrupt":0.05,"duplicate":0.05,"deadline_ms":10000}`))
	if err != nil {
		t.Fatal(err)
	}
	fin, err := cl.Wait(ctx, ji.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if fin.State != StateDone {
		t.Fatalf("faulted job finished %s: %s", fin.State, fin.Error)
	}
	var retrans, lost int64
	for i, r := range fin.Results {
		b := base.Results[i]
		if r.TriangleFree != b.TriangleFree || r.Bits != b.Bits || r.Rounds != b.Rounds {
			t.Fatalf("trial %d diverged under faults: %+v vs %+v", i, r, b)
		}
		if r.WireBytes <= b.WireBytes {
			t.Fatalf("trial %d wire bytes %d not above clean %d", i, r.WireBytes, b.WireBytes)
		}
		retrans += r.Retransmits
		lost += r.FramesLost
	}
	if retrans == 0 || lost == 0 {
		t.Fatalf("loss at these rates must reach the outcomes: retrans %d lost %d", retrans, lost)
	}
}

// TestAbortedTrialsDegradeToPartial pins the failure budget: trials whose
// fault schedule exhausts the retransmit budget are recorded aborted (with
// the retry count they consumed), and the job degrades to StatePartial
// within max_failed_trials — or StateFailed beyond it — instead of
// silently discarding the completed trials.
func TestAbortedTrialsDegradeToPartial(t *testing.T) {
	cl, shutdown := newTestServer(t, Config{Workers: 1})
	defer shutdown()
	ctx := context.Background()

	// drop 0.9 with a 2-frame budget aborts every session deterministically.
	const hopeless = `{"drop":0.9,"max_resend":2,"deadline_ms":5000}`
	spec := faultyJob(2, 3, hopeless)
	spec.MaxFailedTrials = 2
	ji, err := cl.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	fin, err := cl.Wait(ctx, ji.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if fin.State != StatePartial {
		t.Fatalf("job with all trials aborted inside budget: state %s (%s)", fin.State, fin.Error)
	}
	if fin.Summary == nil || fin.Summary.FailedTrials != 2 {
		t.Fatalf("summary must count the aborted trials: %+v", fin.Summary)
	}
	for _, r := range fin.Results {
		if !r.Aborted || !strings.Contains(r.Error, "aborted") {
			t.Fatalf("trial %d not recorded aborted: %+v", r.Trial, r)
		}
		if r.Retries != 2 { // the default retry budget, fully consumed
			t.Fatalf("trial %d consumed %d retries, want 2", r.Trial, r.Retries)
		}
	}
	st, err := cl.ServerStats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Partial != 1 || st.TrialsAborted != 2 || st.TrialRetries != 4 {
		t.Fatalf("stats missed the aborts: %+v", st)
	}

	// The same schedule beyond the budget fails the job — but keeps the
	// per-trial record of what happened.
	spec.MaxFailedTrials = 0
	ji, err = cl.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	fin, err = cl.Wait(ctx, ji.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if fin.State != StateFailed || !strings.Contains(fin.Error, "max_failed_trials") {
		t.Fatalf("job over budget: state %s (%s)", fin.State, fin.Error)
	}
	if len(fin.Results) != 2 || !fin.Results[0].Aborted {
		t.Fatalf("failed job lost its trial record: %+v", fin.Results)
	}
}

// TestTrialTimeoutAborts pins the per-trial deadline: a trial that cannot
// finish inside trial_timeout_ms is retried and then recorded aborted. The
// instance must keep a whole trial several times over the 1 ms budget: at
// n = 16384 an uninterrupted trial of this job takes about 7 ms on a 2-vCPU
// VM, while at n = 1024 the candidate waves finish one in about 1 ms.
func TestTrialTimeoutAborts(t *testing.T) {
	cl, shutdown := newTestServer(t, Config{Workers: 1})
	defer shutdown()
	ctx := context.Background()

	spec := faultyJob(1, 9, "")
	spec.Graph.Spec.N = 16384
	spec.TrialTimeoutMS = 1
	spec.MaxFailedTrials = 1
	ji, err := cl.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	fin, err := cl.Wait(ctx, ji.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if fin.State != StatePartial || len(fin.Results) != 1 || !fin.Results[0].Aborted {
		t.Fatalf("1ms trial budget on a 16384-vertex interactive session: %+v (%s)", fin.Results, fin.Error)
	}
}

// TestClientRetries pins the client's retry discipline: GETs retry through
// 503s (honoring Retry-After), POSTs retry only on replies the server sends
// without acting (429/503) and surface everything else immediately, and
// 404 maps to the typed ErrNotFound without a retry.
func TestClientRetries(t *testing.T) {
	var gets, posts, notFound atomic.Int32
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		if gets.Add(1) <= 2 {
			w.Header().Set("Retry-After", "0")
			writeJSON(w, http.StatusServiceUnavailable, apiError{Error: "draining"})
			return
		}
		writeJSON(w, http.StatusOK, Stats{Workers: 9})
	})
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		switch posts.Add(1) {
		case 1:
			writeJSON(w, http.StatusInternalServerError, apiError{Error: "boom"})
		case 2:
			w.Header().Set("Retry-After", "0")
			writeJSON(w, http.StatusServiceUnavailable, apiError{Error: "draining"})
		default:
			writeJSON(w, http.StatusAccepted, JobInfo{ID: "job-1"})
		}
	})
	mux.HandleFunc("GET /v1/jobs/nope", func(w http.ResponseWriter, r *http.Request) {
		notFound.Add(1)
		writeErr(w, ErrNotFound)
	})
	hs := httptest.NewServer(mux)
	defer hs.Close()
	cl := &Client{Base: hs.URL, HTTP: hs.Client(),
		Retry: RetryPolicy{MaxAttempts: 4, BaseDelay: time.Millisecond, MaxDelay: 4 * time.Millisecond}}
	ctx := context.Background()

	st, err := cl.ServerStats(ctx)
	if err != nil || st.Workers != 9 {
		t.Fatalf("GET through 503s: %+v, %v", st, err)
	}
	if gets.Load() != 3 {
		t.Fatalf("stats fetched %d times, want 3", gets.Load())
	}

	if _, err := cl.Submit(ctx, JobSpec{}); err == nil || errors.Is(err, ErrBusy) {
		t.Fatalf("POST met a 500: %v, want an immediate non-busy error", err)
	}
	if posts.Load() != 1 {
		t.Fatalf("500 on POST must not be retried, saw %d posts", posts.Load())
	}
	ji, err := cl.Submit(ctx, JobSpec{})
	if err != nil || ji.ID != "job-1" {
		t.Fatalf("POST through a 503: %+v, %v", ji, err)
	}
	if posts.Load() != 3 {
		t.Fatalf("503 on POST must be retried exactly once here, saw %d posts", posts.Load())
	}

	if _, err := cl.Job(ctx, "nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing job: %v, want ErrNotFound", err)
	}
	if notFound.Load() != 1 {
		t.Fatalf("404 must not be retried, saw %d calls", notFound.Load())
	}
}

// TestStreamFromResumesAtOffset pins the reconnect contract: a consumer
// that saw the first k trials resumes with ?offset=k and receives exactly
// the rest, then the final envelope.
func TestStreamFromResumesAtOffset(t *testing.T) {
	cl, shutdown := newTestServer(t, Config{Workers: 1})
	defer shutdown()
	ctx := context.Background()

	ji, err := cl.Submit(ctx, farJob(96, 5, 3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Wait(ctx, ji.ID, 10*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	var got []int
	fin, err := cl.StreamFrom(ctx, ji.ID, 3, func(out TrialOutcome) error {
		got = append(got, out.Trial)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != 3 || got[1] != 4 {
		t.Fatalf("resumed stream delivered trials %v, want [3 4]", got)
	}
	if fin.ID != ji.ID || fin.State != StateDone {
		t.Fatalf("resumed stream final envelope: %+v", fin)
	}
}
