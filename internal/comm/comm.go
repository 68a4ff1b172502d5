// Package comm implements the communication models of the paper as one
// concurrent message-passing runtime with bit-exact cost accounting.
//
// Every model runs over a Topology: the vertex universe, the players'
// private inputs, the shared randomness, and the players' local graph
// views (graph.FromEdges over each input). NewTopology is its only
// constructor. A Topology is built once per cluster and reused across
// every protocol run; each view is built at its first read, exactly once,
// so a view no party reads is never built, and is safe for concurrent
// readers. The models are:
//
//   - RunOn: the coordinator model (§2). k player goroutines hold private
//     inputs and exchange messages with a coordinator over private links;
//     the coordinator drives rounds and outputs the answer. Cost is the
//     total number of message bits in both directions.
//
//   - RunSimultaneousOn: the simultaneous model. Each player computes a
//     single message from its input and the shared randomness; a referee
//     sees only the k messages.
//
//   - Board with BoardPlayersOn: the blackboard model. Posts are public and
//     their bits are counted once regardless of audience size.
//
//   - RunOneWayOn: the 3-player "extended one-way" model of §4.2.2 (Alice
//     and Bob speak, Charlie observes the transcript and answers).
//
// A session is one protocol execution over a Topology. It owns the
// transport links, the goroutines, and a Meter: per-player atomic
// accounting with round counting, optional named-phase attribution, and a
// dedicated counter for blackboard posts made by the coordinator (so board
// traffic is never misattributed to player 0's channel). The session dies
// with the run while the Topology lives on.
//
// Coordinator sessions are transport-agnostic: each player's private link
// is a transport.Conn (in-process channels by default; net.Pipe, TCP
// loopback, or simulated WAN via Topology.WithTransport), and per-link
// wire-byte counters sit alongside the bit meter, cross-checked by
// CheckWire on every successful run.
//
// The coordinator model has one round primitive, AskAll. On the
// coordinator goroutine it sends the request to players 0..k−1 in order,
// then receives their replies in the same order. The paper's cost is the
// bits on the k private channels, not the order they cross in, and every
// transport buffers a frame per direction, so no send waits on a player.
// Stats are bit-identical on every transport, a property the regression
// tests pin down. A player that fails cancels its session, so a
// coordinator waiting on another, silent player unwinds instead of
// hanging. On error paths the snapshot is best-effort: a message sent
// just before a player's failure may be metered even though the player
// never drained it.
//
// Every message is a bit string produced by package wire, so the metered
// cost is exactly the information-theoretic message length the paper's
// bounds speak about.
package comm

import "errors"

// Sentinel errors for the coordinator model.
var (
	// ErrShutdown is returned from Player.Recv when the coordinator has
	// finished and the cluster is shutting down gracefully. Player loops
	// should treat it as a normal exit.
	ErrShutdown = errors.New("comm: cluster shut down")
	// ErrCanceled is returned when the run context is canceled.
	ErrCanceled = errors.New("comm: run canceled")
	// ErrPlayerDone is returned from Coordinator.Recv when the player has
	// terminated (usually with an error of its own, which RunOn reports).
	ErrPlayerDone = errors.New("comm: player terminated")
	// ErrSessionAborted is returned when a session dies to link faults: a
	// hard disconnect, an exhausted retransmit budget, or a per-message
	// deadline on a lossy transport. It is the typed guarantee of the
	// resilience layer — a faulted run either completes with the paper's
	// one-sided-error contract intact or surfaces this error; it never
	// hangs, leaks, or reports an unsound verdict.
	ErrSessionAborted = errors.New("comm: session aborted")
)
