package service

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"tricomm"
	"tricomm/internal/harness/runner"
	"tricomm/internal/scenario"
)

// Config sizes the service.
type Config struct {
	// Workers is the job worker pool size (default 2): at most Workers jobs
	// run concurrently.
	Workers int
	// QueueDepth bounds the number of queued-but-not-running jobs (default
	// 64); submissions beyond it are rejected with ErrBusy.
	QueueDepth int
	// TrialJobs is the per-job trial parallelism handed to the harness
	// runner (default 1, which also keeps streamed results in trial
	// order). Total in-flight sessions are bounded by Workers × TrialJobs.
	TrialJobs int
	// IntraWorkers is a trial's triangle-search width: the one-round
	// referees' searches and the Check ground-truth audit run on up to
	// this many goroutines (at most 64); ≤ 0 defers to the
	// TRICOMM_INTRA_WORKERS environment variable, then 1. The searches
	// return the serial answers, so this only trades wall-clock for
	// cores on a box whose trial-level pool is idle.
	IntraWorkers int
	// KeepJobs bounds how many finished jobs are retained before the
	// oldest are collected (default 4096).
	KeepJobs int
	// JobTTL additionally expires finished jobs by age — a job is
	// collected once it has been done/failed for longer than JobTTL
	// (0 = keep until the KeepJobs count bound collects it). Live jobs
	// are never collected.
	JobTTL time.Duration
	// TrialTimeout bounds one trial's wall clock for jobs that don't set
	// their own trial_timeout_ms (0 = no server-side default).
	TrialTimeout time.Duration
	// TrialRetries is how many times an aborted or timed-out trial is
	// re-run (same trial seed) before being recorded as aborted
	// (default 2; negative means no retries).
	TrialRetries int
	// DefaultFaults is a fault spec applied to jobs that don't set one —
	// "" (none), a preset, or JSON (see transport.ParseFaultSpec). Used
	// by the daemon's -faults flag to harden every session it runs.
	DefaultFaults string
	// Logger receives structured job-lifecycle events (submission, state
	// transitions, trial aborts), each tagged with the job ID. Nil
	// discards them, preserving the historical silence of embedded
	// servers; the daemon passes its process logger.
	Logger *slog.Logger
	// Store is the durability backend (default NewMemStore, which
	// preserves the historical forget-on-restart behavior). At startup
	// the server rebuilds its working set from the store: finished
	// records become listable history, unfinished ones are re-enqueued
	// and resumed by replaying only their missing trials from the
	// deterministic per-trial seeds. The caller retains ownership and
	// must Close the store after Server.Close.
	Store Store
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.TrialJobs <= 0 {
		c.TrialJobs = 1
	}
	if c.KeepJobs <= 0 {
		c.KeepJobs = 4096
	}
	if c.TrialRetries == 0 {
		c.TrialRetries = 2
	} else if c.TrialRetries < 0 {
		c.TrialRetries = 0
	}
	if c.Store == nil {
		c.Store = NewMemStore()
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.DiscardHandler)
	}
	return c
}

// job is the server-side state of one submission.
type job struct {
	id  string
	seq int64

	spec JobSpec

	mu       sync.Mutex
	state    JobState
	err      string
	results  []TrialOutcome // indexed by trial
	filled   []bool
	done     int
	summary  *Summary
	created  time.Time
	started  time.Time
	finished time.Time       // set on done/failed; the TTL clock
	watchers []chan struct{} // closed-and-discarded on every update
}

// update mutates the job under its lock and wakes every watcher.
func (j *job) update(fn func()) {
	j.mu.Lock()
	fn()
	ws := j.watchers
	j.watchers = nil
	j.mu.Unlock()
	for _, w := range ws {
		close(w)
	}
}

// watch returns a channel closed at the next update.
func (j *job) watch() <-chan struct{} {
	j.mu.Lock()
	defer j.mu.Unlock()
	w := make(chan struct{})
	if j.state.Finished() {
		close(w) // no further updates are coming; don't park watchers
		return w
	}
	j.watchers = append(j.watchers, w)
	return w
}

// info snapshots the API view with the full result prefix.
func (j *job) info(withResults bool) JobInfo {
	if withResults {
		return j.infoPage(0, -1)
	}
	return j.infoPage(0, 0)
}

// infoPage snapshots the API view with a window of the results. Results
// are exposed up to the first gap so watchers always see a prefix in
// trial order; offset/limit select within that prefix (limit < 0 means
// the whole tail) and ResultsTotal reports the prefix length.
func (j *job) infoPage(offset, limit int) JobInfo {
	j.mu.Lock()
	defer j.mu.Unlock()
	ji := JobInfo{
		ID:         j.id,
		State:      j.state,
		Error:      j.err,
		Spec:       j.spec,
		TrialsDone: j.done,
		Summary:    j.summary,
	}
	n := 0
	for n < len(j.filled) && j.filled[n] {
		n++
	}
	ji.ResultsTotal = n
	if offset < 0 {
		offset = 0
	}
	if offset > n {
		offset = n
	}
	ji.ResultsOffset = offset
	end := n
	if limit >= 0 && offset+limit < end {
		end = offset + limit
	}
	if offset < end {
		ji.Results = append([]TrialOutcome(nil), j.results[offset:end]...)
	}
	return ji
}

// record snapshots the job's persisted envelope.
func (j *job) record() JobRecord {
	j.mu.Lock()
	defer j.mu.Unlock()
	return JobRecord{
		ID:        j.id,
		Seq:       j.seq,
		Spec:      j.spec,
		State:     j.state,
		Error:     j.err,
		Summary:   j.summary,
		CreatedMS: j.created.UnixMilli(),
		UpdatedMS: time.Now().UnixMilli(),
	}
}

// Server schedules submitted jobs onto a bounded worker pool. Create with
// New, serve its Handler, and Close it to drain; Close waits for every
// worker, so a closed server has no goroutines left.
type Server struct {
	cfg   Config
	store Store
	start time.Time

	mu     sync.Mutex
	jobs   map[string]*job
	order  []string // insertion order, for listing and collection
	closed bool

	queue  chan *job
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	nextID        atomic.Int64
	resumed       int64 // set before workers start, read-only after
	submitted     atomic.Int64
	completed     atomic.Int64
	partial       atomic.Int64
	failed        atomic.Int64
	trialsRun     atomic.Int64
	trialRetries  atomic.Int64
	trialsAborted atomic.Int64
	storeErrs     atomic.Int64
}

// New starts a server with cfg's worker pool. If cfg.Store holds prior
// state (a reopened FileStore), the working set is rebuilt from it
// before the workers start: finished jobs become listable history and
// unfinished ones are re-enqueued for resumption, oldest first.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:    cfg,
		store:  cfg.Store,
		start:  time.Now(),
		jobs:   make(map[string]*job),
		ctx:    ctx,
		cancel: cancel,
	}

	var pending []*job
	var maxSeq int64
	for _, rec := range s.store.ListJobs() {
		j := s.jobFromRecord(rec)
		if rec.Seq > maxSeq {
			maxSeq = rec.Seq
		}
		s.jobs[j.id] = j
		s.order = append(s.order, j.id)
		if j.state == StateQueued {
			pending = append(pending, j)
		}
	}
	s.nextID.Store(maxSeq)
	s.resumed = int64(len(pending))

	// The queue is oversized by the resume backlog so a restart can never
	// lose jobs to its own backpressure; Submit still rejects beyond
	// QueueDepth, so client-visible semantics are unchanged.
	s.queue = make(chan *job, cfg.QueueDepth+len(pending))
	for _, j := range pending {
		s.queue <- j
	}
	mQueueDepth.Set(float64(len(s.queue)))
	mRetained.Set(float64(len(s.jobs)))

	for w := 0; w < cfg.Workers; w++ {
		s.wg.Add(1)
		go s.worker()
	}
	if cfg.JobTTL > 0 {
		s.wg.Add(1)
		go s.janitor()
	}
	return s
}

// jobFromRecord materializes a stored job. Records caught mid-flight
// (queued or running at crash time) restart as queued with their landed
// trials kept verbatim; runTrials then executes only the missing ones.
func (s *Server) jobFromRecord(rec JobRecord) *job {
	_, trials, _ := s.store.GetJob(rec.ID)
	j := &job{
		id:      rec.ID,
		seq:     rec.Seq,
		spec:    rec.Spec,
		state:   rec.State,
		err:     rec.Error,
		summary: rec.Summary,
		created: time.UnixMilli(rec.CreatedMS),
		results: make([]TrialOutcome, rec.Spec.Trials),
		filled:  make([]bool, rec.Spec.Trials),
	}
	for _, out := range trials {
		if out.Trial >= 0 && out.Trial < len(j.results) && !j.filled[out.Trial] {
			j.results[out.Trial] = out
			j.filled[out.Trial] = true
			j.done++
		}
	}
	if j.state.Finished() {
		j.finished = time.UnixMilli(rec.UpdatedMS)
	} else {
		j.state = StateQueued
	}
	return j
}

// Close stops accepting jobs, cancels running ones, and waits for the
// workers to exit. Interrupted jobs are parked back in the queued state
// (and persisted as such), so a durable store resumes them on the next
// start. The store itself is left open for the caller to Close.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	s.closed = true
	close(s.queue)
	s.mu.Unlock()
	s.cancel()
	s.wg.Wait()
}

// Submit validates and enqueues a job, returning its queued info. The
// job ID is assigned only once admission is guaranteed, so rejected
// submissions (ErrBusy, store failures) leave no gaps in the sequence.
func (s *Server) Submit(spec JobSpec) (JobInfo, error) {
	spec = spec.withDefaults()
	if err := spec.Validate(); err != nil {
		return JobInfo{}, fmt.Errorf("%w: %v", ErrInvalid, err)
	}
	j := &job{
		spec:    spec,
		state:   StateQueued,
		created: time.Now(),
		results: make([]TrialOutcome, spec.Trials),
		filled:  make([]bool, spec.Trials),
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		mRejected.Inc()
		return JobInfo{}, ErrClosed
	}
	// Backpressure check under the lock: all senders hold s.mu and
	// receivers only drain, so len < cap here guarantees the send below
	// cannot block. The queue may be physically larger than QueueDepth
	// (resume backlog); admission is still bounded by QueueDepth.
	if len(s.queue) >= s.cfg.QueueDepth || len(s.queue) == cap(s.queue) {
		s.mu.Unlock()
		mRejected.Inc()
		return JobInfo{}, ErrBusy
	}
	seq := s.nextID.Add(1)
	j.seq = seq
	j.id = fmt.Sprintf("job-%d", seq)
	if err := s.store.PutJob(j.record()); err != nil {
		// Not admitted: roll the sequence back (serialized under s.mu).
		s.nextID.Add(-1)
		s.mu.Unlock()
		return JobInfo{}, fmt.Errorf("service: store: %w", err)
	}
	s.queue <- j
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	s.gcLocked(time.Now())
	queued, retained := len(s.queue), len(s.jobs)
	s.mu.Unlock()

	s.submitted.Add(1)
	mJobsSubmitted.Inc()
	observeTransition(StateQueued)
	mQueueDepth.Set(float64(queued))
	mRetained.Set(float64(retained))
	s.cfg.Logger.Info("job submitted", "job", j.id, "trials", spec.Trials, "queued", queued)
	return j.info(false), nil
}

// gcLocked collects finished jobs in one forward pass over the insertion
// order: the oldest finished jobs beyond the KeepJobs bound, plus (when
// JobTTL is set) any finished longer than JobTTL ago. Collected jobs are
// removed from the store too. Live jobs are never collected, so the
// retained count can exceed KeepJobs while the pool is saturated.
func (s *Server) gcLocked(now time.Time) {
	over := len(s.order) - s.cfg.KeepJobs
	if over <= 0 && s.cfg.JobTTL <= 0 {
		return
	}
	// kept shares s.order's backing array; the write index never passes
	// the read index, so compacting in place during the scan is safe.
	kept := s.order[:0]
	for _, id := range s.order {
		j := s.jobs[id]
		j.mu.Lock()
		finished := j.state.Finished()
		finishedAt := j.finished
		j.mu.Unlock()
		expired := s.cfg.JobTTL > 0 && finished && now.Sub(finishedAt) > s.cfg.JobTTL
		if finished && (over > 0 || expired) {
			over-- // any collection shrinks the retained set
			delete(s.jobs, id)
			mGCEvicted.Inc()
			if err := s.store.DeleteJob(id); err != nil {
				s.storeErrs.Add(1)
				mStoreErrors.Inc()
			}
			continue
		}
		kept = append(kept, id)
	}
	s.order = kept
	mRetained.Set(float64(len(s.jobs)))
}

// GC runs one collection pass immediately (the janitor does this
// periodically when JobTTL is set).
func (s *Server) GC() {
	s.mu.Lock()
	s.gcLocked(time.Now())
	s.mu.Unlock()
}

// janitor ages finished jobs out on a timer while JobTTL is set.
func (s *Server) janitor() {
	defer s.wg.Done()
	tick := s.cfg.JobTTL / 4
	if tick < 10*time.Millisecond {
		tick = 10 * time.Millisecond
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			s.GC()
		case <-s.ctx.Done():
			return
		}
	}
}

// Job returns the API view of one job.
func (s *Server) Job(id string, withResults bool) (JobInfo, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return JobInfo{}, ErrNotFound
	}
	return j.info(withResults), nil
}

// JobPage returns one job with a window of its per-trial results:
// limit < 0 means everything from offset on. The window is taken from
// the contiguous result prefix; ResultsTotal/ResultsOffset in the reply
// locate it.
func (s *Server) JobPage(id string, offset, limit int) (JobInfo, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return JobInfo{}, ErrNotFound
	}
	return j.infoPage(offset, limit), nil
}

// Jobs lists every retained job, oldest first, without per-trial results.
func (s *Server) Jobs() []JobInfo {
	s.mu.Lock()
	ids := append([]string(nil), s.order...)
	out := make([]JobInfo, 0, len(ids))
	for _, id := range ids {
		if j, ok := s.jobs[id]; ok {
			out = append(out, j.info(false))
		}
	}
	s.mu.Unlock()
	return out
}

// worker drains the queue until Close.
func (s *Server) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		s.run(j)
	}
}

// persistJob writes the job's envelope through the store, counting (but
// otherwise tolerating) backend failures: the in-memory view stays
// authoritative for this process's lifetime either way.
func (s *Server) persistJob(j *job) {
	if err := s.store.PutJob(j.record()); err != nil {
		s.storeErrs.Add(1)
		mStoreErrors.Inc()
	}
}

// run executes one job's trials through the harness runner.
func (s *Server) run(j *job) {
	j.update(func() {
		j.state = StateRunning
		j.started = time.Now()
	})
	observeTransition(StateRunning)
	mQueueDepth.Set(float64(len(s.queue)))
	s.cfg.Logger.Info("job running", "job", j.id)
	s.persistJob(j)
	if err := s.runTrials(j); err != nil {
		if s.ctx.Err() != nil {
			// Shutdown interruption, not a job fault: park the job back in
			// the queued state so a durable store resumes it — replaying
			// only the missing trials — on the next start.
			j.update(func() { j.state = StateQueued })
			observeTransition(StateQueued)
			s.cfg.Logger.Info("job parked for resume", "job", j.id)
			s.persistJob(j)
			return
		}
		s.failed.Add(1)
		j.update(func() {
			j.state = StateFailed
			j.err = err.Error()
			j.finished = time.Now()
		})
		observeTransition(StateFailed)
		s.cfg.Logger.Error("job failed", "job", j.id, "error", err.Error())
		s.persistJob(j)
		return
	}
	var final JobState
	j.update(func() {
		sum := Summary{Trials: j.spec.Trials, ElapsedMS: time.Since(j.started).Milliseconds()}
		completed := 0
		for _, r := range j.results {
			sum.Retries += r.Retries
			if r.Aborted {
				sum.FailedTrials++
				continue
			}
			completed++
			if !r.TriangleFree {
				sum.Found++
			}
			sum.MeanBits += float64(r.Bits)
			if r.Bits > sum.MaxBits {
				sum.MaxBits = r.Bits
			}
			sum.WireBytes += r.WireBytes
		}
		if completed > 0 {
			sum.MeanBits /= float64(completed)
		}
		// Aborted trials degrade the job within its budget instead of
		// discarding the completed trials' work.
		switch {
		case sum.FailedTrials == 0:
			j.state = StateDone
		case sum.FailedTrials <= j.spec.MaxFailedTrials:
			j.state = StatePartial
		default:
			j.state = StateFailed
			j.err = fmt.Sprintf("%d trials aborted, budget max_failed_trials=%d",
				sum.FailedTrials, j.spec.MaxFailedTrials)
		}
		final = j.state
		j.summary = &sum
		j.finished = time.Now()
	})
	switch final {
	case StateDone:
		s.completed.Add(1)
	case StatePartial:
		s.partial.Add(1)
	default:
		s.failed.Add(1)
	}
	observeTransition(final)
	j.mu.Lock()
	elapsed := j.finished.Sub(j.started)
	j.mu.Unlock()
	s.cfg.Logger.Info("job finished", "job", j.id, "state", string(final), "elapsed", elapsed)
	s.persistJob(j)
}

// runTrials fans the job's trials onto the harness runner. Trial i is a
// pure function of TrialSeed(spec.Seed, i): instance generation, the
// split, and the protocol's shared randomness all derive from it, so any
// outcome can be replayed independently — which is also why a resumed
// job (some trials already filled from the store) just skips the filled
// ones and produces results byte-identical to an uninterrupted run.
func (s *Server) runTrials(j *job) error {
	spec := j.spec

	// An uploaded edge list is one immutable instance shared by all trials
	// (only the split seed varies); generator families redraw per trial.
	var uploaded *tricomm.Graph
	if spec.Graph.Kind == "edges" {
		b := tricomm.NewBuilder(spec.Graph.N)
		for _, e := range spec.Graph.Edges {
			b.AddEdge(e[0], e[1])
		}
		uploaded = b.Build()
	}

	_, err := runner.MapArena(s.ctx, s.cfg.TrialJobs, spec.Trials,
		func(ctx context.Context, a *runner.Arena, trial int) (struct{}, error) {
			j.mu.Lock()
			alreadyFilled := j.filled[trial]
			j.mu.Unlock()
			if alreadyFilled {
				return struct{}{}, nil // resumed: this outcome survived the restart
			}
			s.trialsRun.Add(1)
			mTrialsRun.Inc()
			trialStart := time.Now()
			seed := runner.TrialSeed(spec.Seed, trial)
			g := uploaded
			var players [][]tricomm.Edge
			if g == nil {
				inst, gerr := generate(spec.Graph, a.Rand(int64(seed)))
				if gerr != nil {
					return struct{}{}, gerr
				}
				g = inst.G
				players = inst.Players
			}
			scheme, err := tricomm.ParseSplitScheme(spec.Partition)
			if err != nil {
				return struct{}{}, err
			}
			// A family that prescribes the per-player assignment overrides
			// the job's split scheme (the assignment IS the scenario).
			var cl *tricomm.Cluster
			if players != nil {
				cl, err = tricomm.NewCluster(g.N(), players, seed)
			} else {
				cl, err = tricomm.Split(g, spec.K, scheme, seed)
			}
			if err != nil {
				return struct{}{}, err
			}
			opts, err := spec.options(g.AvgDegree())
			if err != nil {
				return struct{}{}, err
			}
			if opts.Faults == "" {
				opts.Faults = s.cfg.DefaultFaults
			}
			opts.IntraWorkers = s.cfg.IntraWorkers
			timeout := time.Duration(spec.TrialTimeoutMS) * time.Millisecond
			if timeout <= 0 {
				timeout = s.cfg.TrialTimeout
			}

			// Run the trial, re-running aborted or timed-out sessions with
			// the SAME trial seed up to the retry budget. The cluster and
			// options are reused verbatim, so a retry replays the identical
			// experiment; only timing-dependent failures (trial timeouts,
			// wall-clock stalls) can come out differently. A trial that
			// exhausts the budget is recorded aborted, not fatal: the job's
			// max_failed_trials budget decides its final state.
			var rep tricomm.Report
			var runErr error
			retries := 0
			for {
				start := time.Now()
				tctx, cancel := ctx, context.CancelFunc(func() {})
				if timeout > 0 {
					tctx, cancel = context.WithTimeout(ctx, timeout)
				}
				rep, runErr = cl.Test(tctx, opts)
				// The clock decides a timeout, not tctx.Err(): the runtime
				// may run the deadline's timer late, after a trial over its
				// budget has already finished.
				timedOut := timeout > 0 && time.Since(start) >= timeout && ctx.Err() == nil
				cancel()
				if timedOut && runErr == nil {
					runErr = fmt.Errorf("trial ran past its %v budget: %w", timeout, context.DeadlineExceeded)
				}
				if runErr == nil || ctx.Err() != nil {
					break
				}
				if !errors.Is(runErr, tricomm.ErrSessionAborted) && !timedOut {
					// Not a resilience failure (bad spec, internal error):
					// fail the whole job as before.
					return struct{}{}, fmt.Errorf("trial %d (seed %d): %w", trial, seed, runErr)
				}
				if retries >= s.cfg.TrialRetries {
					break
				}
				retries++
				s.trialRetries.Add(1)
				mTrialRetries.Inc()
			}
			if runErr != nil && ctx.Err() != nil {
				// Shutdown or job cancellation, not a trial outcome.
				return struct{}{}, fmt.Errorf("trial %d (seed %d): %w", trial, seed, runErr)
			}

			out := TrialOutcome{Trial: trial, Seed: seed, Retries: retries}
			if runErr != nil {
				out.Aborted = true
				out.Error = runErr.Error()
				s.trialsAborted.Add(1)
				mTrialsAborted.Inc()
			} else {
				out.TriangleFree = rep.TriangleFree
				out.Bits = rep.Bits
				out.WireBytes = rep.WireBytes
				out.Rounds = rep.Rounds
				out.PhaseBits = rep.PhaseBits
				out.Retransmits = rep.Retransmits
				out.FramesLost = rep.FramesLost
				if !rep.TriangleFree {
					out.Witness = &[3]int{rep.Witness.A, rep.Witness.B, rep.Witness.C}
				}
				if spec.Check {
					_, has := g.FindTriangleN(s.cfg.IntraWorkers)
					out.HasTriangle = &has
				}
			}
			j.update(func() {
				j.results[trial] = out
				j.filled[trial] = true
				j.done++
			})
			mTrialSeconds.Observe(time.Since(trialStart).Seconds())
			if err := s.store.PutTrial(j.id, out); err != nil {
				s.storeErrs.Add(1)
				mStoreErrors.Inc()
			}
			return struct{}{}, nil
		})
	return err
}

// generate draws a generator-spec instance from the trial rng via the
// scenario registry. The constructions match the tricomm facade exactly
// (GenerateScenario seeds a fresh rand.Source; the runner arena reseeds
// in place, which produces the identical sequence), so clients can
// regenerate any trial's instance with the public API and audit the
// verdict.
func generate(gs GraphSpec, rng *rand.Rand) (scenario.Instance, error) {
	sp, err := gs.scenarioSpec()
	if err != nil {
		return scenario.Instance{}, err
	}
	return scenario.Build(sp, rng)
}

// Stats is the service-level counter snapshot for the /v1/stats endpoint.
type Stats struct {
	// UptimeMS is the server age in milliseconds.
	UptimeMS int64 `json:"uptime_ms"`
	// Workers and QueueDepth echo the pool configuration.
	Workers    int `json:"workers"`
	QueueDepth int `json:"queue_depth"`
	// Queued is the current queue length (including any resume backlog).
	Queued int `json:"queued"`
	// Retained is the number of jobs currently held (and listable).
	Retained int `json:"retained"`
	// Resumed counts jobs re-enqueued from the store at startup.
	Resumed int64 `json:"resumed,omitempty"`
	// Submitted, Completed, Partial, and Failed count jobs over the
	// server's life; partial jobs finished with some trials aborted but
	// within their max_failed_trials budget.
	Submitted int64 `json:"submitted"`
	Completed int64 `json:"completed"`
	Partial   int64 `json:"partial,omitempty"`
	Failed    int64 `json:"failed"`
	// TrialsRun counts trials actually executed (resumed jobs' surviving
	// trials are kept verbatim and not re-run, so they don't count).
	TrialsRun int64 `json:"trials_run"`
	// TrialRetries counts trial re-runs after aborts or timeouts;
	// TrialsAborted counts trials that exhausted the retry budget.
	TrialRetries  int64 `json:"trial_retries,omitempty"`
	TrialsAborted int64 `json:"trials_aborted,omitempty"`
	// StoreErrors counts persistence-backend write failures.
	StoreErrors int64 `json:"store_errors,omitempty"`
}

// Health is the /healthz payload: liveness plus readiness context. Ready
// is false while the server is draining (Close underway or finished),
// which /healthz maps to 503 so probes take a draining daemon out of
// rotation before its listener goes away.
type Health struct {
	// OK is liveness: the process is serving requests.
	OK bool `json:"ok"`
	// Ready is readiness: the server is accepting submissions.
	Ready bool `json:"ready"`
	// UptimeMS is the server age in milliseconds.
	UptimeMS int64 `json:"uptime_ms"`
	// Goroutines is the process goroutine count.
	Goroutines int `json:"goroutines"`
	// Store names the durability backend ("mem", "file"); DBPath is its
	// on-disk location when the backend is disk-backed.
	Store  string `json:"store,omitempty"`
	DBPath string `json:"db_path,omitempty"`
	// Resumed counts jobs re-enqueued from the store at startup; Queued
	// and Retained mirror Stats for probes that only hit /healthz.
	Resumed  int64 `json:"resumed,omitempty"`
	Queued   int   `json:"queued"`
	Retained int   `json:"retained"`
}

// Health snapshots liveness and readiness for the /healthz endpoint.
func (s *Server) Health() Health {
	s.mu.Lock()
	closed := s.closed
	retained := len(s.jobs)
	s.mu.Unlock()
	h := Health{
		OK:         true,
		Ready:      !closed,
		UptimeMS:   time.Since(s.start).Milliseconds(),
		Goroutines: runtime.NumGoroutine(),
		Resumed:    s.resumed,
		Queued:     len(s.queue),
		Retained:   retained,
	}
	if d, ok := s.store.(Describer); ok {
		h.Store, h.DBPath = d.Describe()
	}
	return h
}

// Stats snapshots the service counters.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	retained := len(s.jobs)
	s.mu.Unlock()
	return Stats{
		UptimeMS:      time.Since(s.start).Milliseconds(),
		Workers:       s.cfg.Workers,
		QueueDepth:    s.cfg.QueueDepth,
		Queued:        len(s.queue),
		Retained:      retained,
		Resumed:       s.resumed,
		Submitted:     s.submitted.Load(),
		Completed:     s.completed.Load(),
		Partial:       s.partial.Load(),
		Failed:        s.failed.Load(),
		TrialsRun:     s.trialsRun.Load(),
		TrialRetries:  s.trialRetries.Load(),
		TrialsAborted: s.trialsAborted.Load(),
		StoreErrors:   s.storeErrs.Load(),
	}
}
