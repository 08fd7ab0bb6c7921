package sim

// Every scheduled event carries a lane tag. Peer-targeted events (message
// delivery, per-peer timers) are tagged with the lane of their target
// peer; events with no single target (tickers, experiment phases, growth
// joins) carry GlobalLane. NumLanes must match the overlay's lane count: a
// lane here is the same slab-page-stride partition the tick fan-out
// shards over, so one lane's events touch one lane's peers. The tag never
// changes firing order; it selects which events may fire together as a
// same-timestamp LaneEvent batch, and is passed to each one's EvalLane.
const (
	// NumLanes is the number of peer lanes.
	NumLanes = 64
	// GlobalLane is the lane tag of events with no target lane.
	GlobalLane = NumLanes

	// numQueues counts the distinct lane tags, GlobalLane included.
	numQueues = NumLanes + 1
)

// LaneEvent is an Event whose firing can be split into a lane-local
// evaluation and a cross-peer commit. When several LaneEvents share one
// timestamp, the engine fires them as a batch: every EvalLane first, in
// scheduling order, then every CommitLane in the same order. EvalLane may
// assume lane-confined state — it touches only state owned by its own
// lane's peers, and must not schedule, draw shared randomness, or mutate
// engine/global state — and runs on the event loop, like every other
// firing; CommitLane applies the cross-peer effects. The contract mirrors
// the tick barrier of DESIGN.md §6 "Tick": Fire must be exactly equivalent
// to EvalLane followed by CommitLane, so a batch of size one can fall
// back to Fire.
type LaneEvent interface {
	Event
	// Batchable reports whether this firing may currently be split into
	// EvalLane/CommitLane. Implementations return false when runtime
	// state (fault injection, custom handlers) requires the serial path.
	Batchable() bool
	// EvalLane performs the lane-local half of the firing.
	EvalLane(e *Engine, lane int)
	// CommitLane applies buffered cross-peer effects; called in the exact
	// order the batch's events would have fired.
	CommitLane(e *Engine)
}
