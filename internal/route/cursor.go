package route

import (
	"errors"

	"repro/internal/graph"
)

// Errors of the bounded-work layer.
var (
	// ErrBudgetUnsupported means budgets, deadlines, or resume cursors were
	// requested for a configuration that cannot honor them: the bounded
	// walk runs only on the compiled flat path (no ablations, no netsim
	// instrumentation, PRF-backed base-3 sequences).
	ErrBudgetUnsupported = errors.New("route: budgeted routing requires the compiled flat path")
	// ErrBadCursor means a resume cursor does not describe a continuable
	// position for this router and pair — wrong endpoints, out-of-range
	// position, or a stale topology version that cannot be re-entered.
	ErrBadCursor = errors.New("route: invalid resume cursor")
)

// ExhaustReason says why a bounded walk stopped before reaching a verdict.
type ExhaustReason string

// Exhaustion reasons.
const (
	// ExhaustBudget: the per-request hop budget ran out.
	ExhaustBudget ExhaustReason = "budget"
	// ExhaustDeadline: the context deadline expired (checked at round
	// starts and epoch boundaries, not per hop).
	ExhaustDeadline ExhaustReason = "deadline"
)

// Certificate proves a failure verdict was answered in O(1) from the
// compile-time component index instead of by burning the doubling budget:
// the source and destination lie in different connected components of the
// walked snapshot, so no exploration sequence can ever join them (§4's
// closure argument, precomputed).
type Certificate struct {
	// SrcComponent is the canonical component id of the source's gadget.
	SrcComponent int32 `json:"src_component"`
	// DstComponent is the destination's component id, or -1 when the
	// destination is not a node of the graph at all.
	DstComponent int32 `json:"dst_component"`
	// Components is the total component count of the snapshot.
	Components int `json:"components"`
	// Epoch and Version stamp the dynamic-world snapshot the certificate
	// was decided on (both zero for a static router).
	Epoch   int    `json:"epoch,omitempty"`
	Version uint64 `json:"version,omitempty"`
}

// Cursor is a serializable walk position plus the statistics accumulated so
// far — the paper's stateless (node, header) pair made explicit, so a walk
// stopped by a budget or deadline can continue in a later request exactly
// where it left off. Cursors are minted by the router; clients treat them
// as opaque (the HTTP layer signs them).
type Cursor struct {
	// Src and Dst pin the cursor to one query; resuming with different
	// endpoints is rejected.
	Src graph.NodeID `json:"src"`
	Dst graph.NodeID `json:"dst"`
	// Bound is the doubling bound of the interrupted round.
	Bound int `json:"bound"`
	// Node and InPort are the dense walk position in the snapshot compiled
	// at Version. They re-enter exactly when the topology version still
	// matches; otherwise the walk re-enters at At's canonical gadget, the
	// same rule the dynamic router applies across recompiles.
	Node   int32 `json:"node"`
	InPort int32 `json:"in_port"`
	// At is the original node the walk was at — the recompile-tolerant
	// re-entry point.
	At graph.NodeID `json:"at"`
	// Index, Backward, and Success are the message header: the 1-based
	// exploration index and the direction/status bits.
	Index    int64 `json:"index"`
	Backward bool  `json:"backward"`
	Success  bool  `json:"success"`
	// Version is the topology version Node/InPort were minted against
	// (0 for a static router).
	Version uint64 `json:"version,omitempty"`
	// Hops counts hops of fully completed rounds; RoundHops the hops
	// already spent inside the interrupted round (kept apart so the
	// continued round's total folds in without double counting).
	Hops      int64 `json:"hops"`
	RoundHops int64 `json:"round_hops"`
	// MaxIndex is the peak exploration index seen inside the interrupted
	// round (feeds the header-bits statistic on completion).
	MaxIndex int64 `json:"max_index"`
	// Accumulated result statistics carried across continuations.
	Rounds        int `json:"rounds"`
	AbortedRounds int `json:"aborted_rounds,omitempty"`
	Epochs        int `json:"epochs,omitempty"`
	Resumptions   int `json:"resumptions,omitempty"`
	SinceEpoch    int `json:"since_epoch,omitempty"`
	MaxHeaderBits int `json:"max_header_bits"`
	// PeakMemoryBits is the walk's memory-metering peak so far, so the
	// final Result reports the peak of every call.
	PeakMemoryBits int `json:"peak_memory_bits,omitempty"`
}
