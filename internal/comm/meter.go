package comm

import (
	"sync"
	"sync/atomic"
	"time"
)

// Meter accumulates the communication cost of a protocol run on per-player
// atomic counters. Every Add call and every Snapshot runs on the session's
// scheduling goroutine (the coordinator's, in RunOn), so snapshots are
// exact; ObserveParallel may run on any goroutine, and the atomics keep it
// race-free. The meter also supports named-phase attribution (BeginPhase)
// and a dedicated counter for blackboard posts made by the coordinator.
// The zero value is unusable — use NewMeter.
type Meter struct {
	up       []atomic.Int64 // player → coordinator bits, per player
	down     []atomic.Int64 // coordinator → player bits, per player
	coord    atomic.Int64   // coordinator blackboard posts (no player channel)
	messages atomic.Int64
	rounds   atomic.Int64

	phaseMu    sync.Mutex
	phases     []*phaseCounter
	phaseStart time.Time // guarded by phaseMu; when the active phase began
	cur        atomic.Pointer[phaseCounter]
	parNanos   atomic.Int64 // parallel-region wall clock outside any phase
}

type phaseCounter struct {
	name     string
	bits     atomic.Int64
	nanos    int64        // guarded by Meter.phaseMu; wall clock spent in the phase
	parNanos atomic.Int64 // wall clock inside parallel regions of the phase
}

// NewMeter returns a meter for k players.
func NewMeter(k int) *Meter {
	return &Meter{up: make([]atomic.Int64, k), down: make([]atomic.Int64, k)}
}

func (m *Meter) addPhase(bits int) {
	if p := m.cur.Load(); p != nil {
		p.bits.Add(int64(bits))
	}
}

// AddUp charges bits to player→coordinator traffic on player's channel.
func (m *Meter) AddUp(player, bits int) {
	m.up[player].Add(int64(bits))
	m.addPhase(bits)
	m.messages.Add(1)
}

// AddDown charges bits to coordinator→player traffic on player's channel.
func (m *Meter) AddDown(player, bits int) {
	m.down[player].Add(int64(bits))
	m.addPhase(bits)
	m.messages.Add(1)
}

// AddCoordinator charges bits posted by the coordinator to a public
// blackboard: counted in the totals but on no player's channel.
func (m *Meter) AddCoordinator(bits int) {
	m.coord.Add(int64(bits))
	m.addPhase(bits)
	m.messages.Add(1)
}

// AddRound counts one protocol round.
func (m *Meter) AddRound() { m.rounds.Add(1) }

// ObserveParallel attributes d of wall clock to intra-phase parallel
// regions of the active phase (or to the run's unphased bucket when no
// phase is active). Timing is observability-only — it feeds the metrics
// layer, never Stats, so it cannot perturb the deterministic artifact.
func (m *Meter) ObserveParallel(d time.Duration) {
	if m == nil {
		return
	}
	if p := m.cur.Load(); p != nil {
		p.parNanos.Add(d.Nanoseconds())
		return
	}
	m.parNanos.Add(d.Nanoseconds())
}

// BeginPhase attributes all subsequent traffic to the named phase until
// the next BeginPhase. Re-entering a name resumes its counter. Call it
// from the scheduling goroutine at quiescent points (between rounds).
func (m *Meter) BeginPhase(name string) {
	now := time.Now()
	m.phaseMu.Lock()
	defer m.phaseMu.Unlock()
	m.closePhaseLocked(now)
	for _, p := range m.phases {
		if p.name == name {
			m.cur.Store(p)
			return
		}
	}
	p := &phaseCounter{name: name}
	m.phases = append(m.phases, p)
	m.cur.Store(p)
}

// closePhaseLocked attributes the wall clock since phaseStart to the
// active phase and restarts the clock. Callers hold phaseMu.
func (m *Meter) closePhaseLocked(now time.Time) {
	if p := m.cur.Load(); p != nil {
		p.nanos += now.Sub(m.phaseStart).Nanoseconds()
	}
	m.phaseStart = now
}

// phaseTiming is one phase's accumulated wall-clock time. Timing lives
// beside — never inside — Stats: Stats is a deterministic artifact of the
// protocol (tests compare snapshots across schedules and transports), and
// wall clock is not. The metrics layer is its only consumer.
type phaseTiming struct {
	name       string
	seconds    float64
	parSeconds float64 // wall clock inside intra-phase parallel regions
}

// takePhaseTimings closes out the active phase and returns every declared
// phase's wall-clock total, in declaration order; parallel-region time
// observed outside any phase lands on a trailing "unphased" entry. Called
// once at session end from the scheduling goroutine.
func (m *Meter) takePhaseTimings() []phaseTiming {
	m.phaseMu.Lock()
	defer m.phaseMu.Unlock()
	m.closePhaseLocked(time.Now())
	out := make([]phaseTiming, 0, len(m.phases)+1)
	for _, p := range m.phases {
		out = append(out, phaseTiming{
			name:       p.name,
			seconds:    float64(p.nanos) / 1e9,
			parSeconds: float64(p.parNanos.Load()) / 1e9,
		})
	}
	if root := m.parNanos.Load(); root > 0 {
		out = append(out, phaseTiming{name: "unphased", parSeconds: float64(root) / 1e9})
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// Stats is a snapshot of a protocol run's communication cost.
type Stats struct {
	// TotalBits is the total number of bits exchanged in all directions:
	// UpBits + DownBits + CoordinatorBits.
	TotalBits int64
	// UpBits is the total player→coordinator (or player→board) traffic.
	UpBits int64
	// DownBits is the total coordinator→player traffic.
	DownBits int64
	// CoordinatorBits is blackboard traffic posted by the coordinator
	// itself — public posts that cross no player channel, so they count in
	// TotalBits but in no PerPlayer entry.
	CoordinatorBits int64
	// PerPlayer[j] is the traffic on player j's channel in both directions.
	PerPlayer []int64
	// Messages is the number of messages sent.
	Messages int64
	// Rounds is the number of protocol rounds the coordinator declared.
	Rounds int64
	// Phases attributes bits to the phases declared via BeginPhase, in
	// declaration order (deterministic, unlike a map); nil when the run
	// declared none.
	Phases []Phase
	// WireBytes is the total framed wire bytes that crossed the session's
	// transport links, header overhead included. Zero (with PerLinkBytes
	// nil) for models that run without a transport (blackboard,
	// simultaneous, one-way). CheckWire pins its relation to the bit meter.
	WireBytes int64
	// PerLinkBytes[j] is the framed wire traffic on player j's link in both
	// directions; nil when the run used no transport.
	PerLinkBytes []int64
	// Retransmits counts frames re-sent by the resilience layer after
	// sender-visible loss on a fault-injected transport; zero on clean
	// links. Completed runs have identical bit meters either way — loss
	// shows up only here and in WireBytes.
	Retransmits int64
	// FramesLost counts injected frame drops and corruptions observed by
	// the senders on a fault-injected transport; zero on clean links.
	FramesLost int64
}

// Phase is one named phase's bit total.
type Phase struct {
	Name string
	Bits int64
}

// MaxPlayerBits reports the largest per-player channel traffic.
func (s Stats) MaxPlayerBits() int64 {
	var best int64
	for _, v := range s.PerPlayer {
		if v > best {
			best = v
		}
	}
	return best
}

// Snapshot returns the current cost totals. It runs on the goroutine that
// makes the Add calls, so it is exact: AskAll returns only after every
// message it covers has been metered.
func (m *Meter) Snapshot() Stats {
	s := Stats{
		PerPlayer:       make([]int64, len(m.up)),
		CoordinatorBits: m.coord.Load(),
		Messages:        m.messages.Load(),
		Rounds:          m.rounds.Load(),
	}
	for j := range m.up {
		u, d := m.up[j].Load(), m.down[j].Load()
		s.UpBits += u
		s.DownBits += d
		s.PerPlayer[j] = u + d
	}
	s.TotalBits = s.UpBits + s.DownBits + s.CoordinatorBits
	m.phaseMu.Lock()
	if len(m.phases) > 0 {
		s.Phases = make([]Phase, len(m.phases))
		for i, p := range m.phases {
			s.Phases[i] = Phase{Name: p.name, Bits: p.bits.Load()}
		}
	}
	m.phaseMu.Unlock()
	return s
}
