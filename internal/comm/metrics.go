package comm

import (
	"time"

	"tricomm/internal/obs"
	"tricomm/internal/transport"
)

// Engine-layer metrics. Instrumentation is confined to session boundaries:
// every counter below is written exactly once per run, after the session's
// deterministic outputs (Stats, error) are already fixed, so the
// per-message hot path — AddUp/AddDown, AskAll, frame I/O — carries zero
// instrumentation and instrumented runs stay byte-identical to bare ones.
// The phase label vocabulary is whatever protocols pass to BeginPhase: a
// closed, code-defined set, so cardinality is bounded by the protocol
// suite, not by input data.
var (
	mSessions = obs.NewCounterVec("tricomm_engine_sessions_total",
		"Protocol sessions started, by execution model.", "model")
	mSessionsAborted = obs.NewCounter("tricomm_engine_sessions_aborted_total",
		"Protocol sessions that finished with an error.")
	mBits = obs.NewCounter("tricomm_engine_bits_total",
		"Protocol bits exchanged across all sessions (meter TotalBits).")
	mMessages = obs.NewCounter("tricomm_engine_messages_total",
		"Protocol messages metered across all sessions.")
	mRounds = obs.NewCounter("tricomm_engine_rounds_total",
		"Protocol rounds declared across all sessions.")
	mPhaseBits = obs.NewCounterVec("tricomm_engine_phase_bits_total",
		"Protocol bits attributed to named phases (BeginPhase).", "phase")
	mPhaseSeconds = obs.NewCounterVec("tricomm_engine_phase_seconds_total",
		"Wall-clock seconds attributed to named phases.", "phase")
	mSessionSeconds = obs.NewHistogram("tricomm_engine_session_seconds",
		"Wall-clock duration of one protocol session.", obs.DurationBuckets())
	mIntraWorkers = obs.NewGauge("tricomm_engine_intra_workers",
		"Resolved referee triangle-search width of the most recently started simultaneous session.")
)

// observeSession folds one finished session into the engine metrics and,
// for transport-backed sessions, forwards the link totals to the transport
// layer. It runs after the session's Stats snapshot and final error are
// decided, and never influences either.
func observeSession(model string, start time.Time, stats Stats, timings []phaseTiming, links []transport.Conn, err error) {
	mSessions.With(model).Inc()
	if err != nil {
		mSessionsAborted.Inc()
	}
	mBits.Add(float64(stats.TotalBits))
	mMessages.Add(float64(stats.Messages))
	mRounds.Add(float64(stats.Rounds))
	for _, p := range stats.Phases {
		mPhaseBits.With(p.Name).Add(float64(p.Bits))
	}
	for _, t := range timings {
		if t.seconds > 0 {
			mPhaseSeconds.With(t.name).Add(t.seconds)
		}
	}
	mSessionSeconds.Observe(time.Since(start).Seconds())
	if len(links) > 0 {
		var frames int64
		for _, conn := range links {
			ls := conn.Stats()
			frames += ls.FramesOut + ls.FramesIn
		}
		transport.ObserveWire(stats.WireBytes, frames, stats.Retransmits, stats.FramesLost)
	}
}
