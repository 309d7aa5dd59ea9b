// Package route implements the paper's primary contribution: Algorithm
// Route (§3) — guaranteed-delivery ad hoc routing by universal exploration
// sequence, with the broadcast variant and the doubling outer loop that
// removes the need to know the component size in advance (§4).
//
// The message header carries (s, t, dir, status, i) and nothing else;
// intermediate nodes keep no state between activations. A message walks the
// degree-reduced 3-regular graph G′ following T_n; if it reaches (a gadget
// node of) t it turns around with status success and backtracks along the
// reversed sequence; if the index exceeds L_n it turns around with status
// failure. The source learns the outcome in either case.
//
// Index discipline (1-based, matching the paper): a forward message at
// position P_k (after k steps) carries i = k+1, the index of the next
// direction to apply. A backward message at P_k carries i = k, the index of
// the step to undo next; it is delivered as soon as it reaches any gadget
// node of s.
//
// One driver runs every walk: Walker holds the walk's state — a Cursor
// plus the live round stepper — and runs the doubling schedule (nextBound),
// each round in hop segments on the compiled flat stepper
// (flatgraph.RouteStepper.Run) or the netsim reference stepper, and the §4
// closure check after a failed round. Route runs it with no limit,
// RouteBudgeted restores and mints cursors, Walker.Step advances one
// activation, Broadcast walks toward a name no node carries, and package
// dynamic plugs an evolving topology in as a Provider consulted at segment
// ends. The request span travels in the context (trace.FromContext): a
// sampled span records one child span per round with the walk's hop tail.
package route

import (
	"errors"
	"fmt"
	"maps"
	"math/bits"
	"slices"

	"repro/internal/degred"
	"repro/internal/flatgraph"
	"repro/internal/graph"
	"repro/internal/netsim"
	"repro/internal/ues"
)

// Errors reported by the router.
var (
	// ErrSequenceExhausted means the doubling loop hit its safety cap
	// without the exploration sequence covering the source component —
	// empirically this would mean the pseudorandom sequence is not
	// universal for the instance (never observed; the cap guards against
	// it becoming an infinite loop).
	ErrSequenceExhausted = errors.New("route: sequence bound cap reached without covering component")
	// ErrIsolatedSource is returned by the no-reduction ablation when the
	// source has no edges to walk (the reduced mode handles this case via
	// the theta gadget).
	ErrIsolatedSource = errors.New("route: source node is isolated")
)

// ConfirmMode selects how the source learns the outcome.
type ConfirmMode int

// Confirmation mechanisms.
const (
	// ConfirmBacktrack is the paper's mechanism: the confirmation retraces
	// the forward walk using the reversibility of exploration sequences.
	// The source always learns the outcome within 2·L_n hops.
	ConfirmBacktrack ConfirmMode = iota
	// ConfirmRestart is the ablation: on finding t (or exhausting the
	// sequence), the confirmation is routed by a fresh forward exploration
	// searching for s. Cheaper when s is found quickly, but a confirmation
	// leg can exhaust its sequence at too-small doubling bounds, leaving
	// the round inconclusive — the reliability gap §1.2 warns about for
	// non-backtracking confirmations.
	ConfirmRestart
)

// Config parameterizes a Router. The zero value is usable.
type Config struct {
	// Seed identifies the exploration sequence family T_n; it is shared
	// protocol configuration, not per-node state.
	Seed uint64
	// LengthFactor scales sequence lengths (ues.Length); 0 = default.
	LengthFactor int
	// KnownN, if > 0, is a promised upper bound on the size of the source
	// component of G′; the router runs a single round at this bound, as in
	// the first part of §3. If 0, the router uses the doubling loop.
	KnownN int
	// MaxBound caps the doubling loop (0 = 4·|V(G′)|, always sufficient
	// for a universal sequence).
	MaxBound int
	// MemoryBudgetBits enforces the per-activation working-memory budget;
	// 0 derives an O(log n) default from the graph size.
	MemoryBudgetBits int
	// NoDegreeReduction runs the walk directly on G with full-range
	// directions reduced mod deg(v) — the ablation of the Figure 1 gadget.
	NoDegreeReduction bool
	// Confirm selects the confirmation mechanism (default: the paper's
	// reverse-walk backtracking).
	Confirm ConfirmMode
	// GrowthFactor is the doubling-loop multiplier (default 2, the
	// paper's schedule; the ablation uses 4).
	GrowthFactor int
	// Trace observes every hop of every round.
	Trace netsim.TraceFunc
	// FaultHook, when set, injects message loss (see netsim.WithFault).
	// The paper assumes a static, reliable network; the hook lets the
	// robustness experiments verify that a violated assumption surfaces
	// as netsim.ErrMessageLost and never as a wrong verdict.
	FaultHook func(hop int64) bool
	// SequenceFactory overrides the exploration sequence family: given a
	// size bound it must return T_bound. The default is the PRF-derived
	// ues.Pseudorandom; override to plug certified explicit sequences
	// (ues.CertifiedSmall) or any future construction. The factory must be
	// deterministic — all nodes consult the same T_n.
	SequenceFactory func(bound int) ues.Sequence
	// WireFormat round-trips the header through its serialized form on
	// every hop (netsim.WithWireFormat), as a real link would.
	WireFormat bool
	// DisableFlat forces every walk through the netsim reference engine
	// even when the compiled flat snapshot is available. The flat walker is
	// proven hop-for-hop identical to the reference by the differential
	// tests; this switch exists for those tests and for debugging.
	DisableFlat bool
	// DisableCertificates turns off the O(1) reachability certificate that
	// otherwise answers provably-unreachable pairs from the compile-time
	// component index without walking. The verdict is identical either way
	// (pinned by differential tests); disabling exists for those tests and
	// for measuring the full-budget burn the certificate replaces.
	DisableCertificates bool
}

// Router routes messages on a fixed graph. It precomputes the degree
// reduction once; Route/Broadcast calls are independent and reusable.
//
// Two execution paths serve each query. The hot path walks the compiled
// CSR snapshot of G′ (package flatgraph) in an allocation-free loop; the
// reference path drives the stateless per-node handlers through the netsim
// token engine. They are hop-for-hop identical (pinned by differential
// tests); the reference runs whenever a configuration needs its
// instrumentation — tracing, fault injection, wire-format round-trips,
// custom memory budgets, restart confirmation, non-PRF sequences, or the
// no-reduction ablation.
type Router struct {
	orig *graph.Graph
	red  *degred.Reduced  // nil iff cfg.NoDegreeReduction
	flat *flatgraph.Graph // nil iff cfg.NoDegreeReduction (or disabled)
	cfg  Config
}

// RoundStat records one doubling round.
type RoundStat struct {
	// Bound is the sequence size bound n for this round.
	Bound int
	// SeqLen is L_n.
	SeqLen int
	// Hops is the number of message hops spent in this round.
	Hops int64
	// Outcome is the round's terminal status.
	Outcome netsim.Status
	// Covered reports whether the round's walk covered the source
	// component (checked only after failed rounds).
	Covered bool
}

// Result is the outcome of a Route call.
type Result struct {
	// Status is StatusSuccess if t was reached, StatusFailure if t is
	// provably outside the source component.
	Status netsim.Status
	// Hops is the total message hops across all rounds, including
	// backtracking.
	Hops int64
	// ForwardSteps is the exploration index at which t was found (0 on
	// failure).
	ForwardSteps int64
	// Rounds holds per-round statistics.
	Rounds []RoundStat
	// Bound is the sequence bound of the terminal round.
	Bound int
	// MaxHeaderBits is the largest serialized header observed.
	MaxHeaderBits int
	// PeakMemoryBits is the peak per-activation working memory.
	PeakMemoryBits int
	// Certificate, when non-nil, proves this failure verdict was answered
	// in O(1) from the component index — no hops were walked for it.
	Certificate *Certificate
	// Exhausted is set (with Status left at StatusNone) when a bounded walk
	// stopped before reaching a verdict; Cursor then holds the resumable
	// position.
	Exhausted ExhaustReason
	Cursor    *Cursor
}

// New builds a Router for g, deriving the Figure 1 degree reduction
// (unless cfg disables it). The reduction dominates construction cost;
// callers that already hold a Reduced for g should use NewFromReduced.
func New(g *graph.Graph, cfg Config) (*Router, error) {
	if cfg.NoDegreeReduction {
		return &Router{orig: g, cfg: cfg}, nil
	}
	red, err := degred.Reduce(g)
	if err != nil {
		return nil, fmt.Errorf("route: %w", err)
	}
	return NewFromReduced(g, red, cfg)
}

// NewFromReduced builds a Router for g from a precomputed degree reduction
// of g — the reusable artifact that lets one Reduce serve many routers
// (and the sibling Counter). red must be the reduction of g; cfg must not
// also request the no-reduction ablation. g only validates sources: a
// Provider's snapshot router, which the driver never asks to, may pass nil.
func NewFromReduced(g *graph.Graph, red *degred.Reduced, cfg Config) (*Router, error) {
	if red == nil {
		return nil, errors.New("route: NewFromReduced: nil reduction")
	}
	if cfg.NoDegreeReduction {
		return nil, errors.New("route: NewFromReduced: config disables the degree reduction")
	}
	return &Router{orig: g, red: red, flat: red.Flat(), cfg: cfg}, nil
}

// WorkGraph returns the graph actually walked (G′, or G under the
// ablation). Read-only. Only the reference engine and the local replays
// need it; a delta-compiled snapshot materializes it on first use.
func (r *Router) WorkGraph() *graph.Graph {
	if r.red != nil {
		return r.red.Graph()
	}
	return r.orig
}

// OriginalGraph returns the graph the router was built for. Read-only.
func (r *Router) OriginalGraph() *graph.Graph { return r.orig }

// DefaultMemoryBudget returns the enforced per-activation budget for a work
// graph of n nodes: Θ(log n) bits with a constant floor for the fixed
// registers.
func DefaultMemoryBudget(n int) int {
	return 64*(bits.Len(uint(n))+4) + 512
}

// Certificate answers the reachability question from the memoized
// component index: a non-nil certificate proves the component of s's entry
// can never contain a gadget of t, so the walk's verdict is StatusFailure
// before the first hop. Soundness rests on the theta gadget being
// internally connected — every gadget node of t shares the component of
// t's entry. Returns nil (walk normally) when t is reachable, the ablation
// is active, or certificates are disabled.
//
// Certificates only fire on multi-component graphs. On a single-component
// graph every existing target is reachable, and a name with no gadget is
// only provably absent once the walk covers the component — the early-out
// keeps the reachable hot path at two loads and keeps the static and
// dynamic routers answer-for-answer identical.
func (r *Router) Certificate(s, t graph.NodeID) *Certificate {
	if r.cfg.DisableCertificates || r.flat == nil {
		return nil
	}
	comps := r.flat.Components()
	if comps.Count() == 1 {
		return nil
	}
	se, ok := r.red.Entry(s)
	if !ok {
		return nil
	}
	si, ok := r.flat.Index(se)
	if !ok {
		return nil
	}
	cert := &Certificate{SrcComponent: comps.Of(si), DstComponent: -1, Components: comps.Count()}
	// A t with no gadget is not a node of the graph at all: unreachable by
	// definition.
	if te, ok := r.red.Entry(t); ok {
		if ti, ok := r.flat.Index(te); ok {
			cert.DstComponent = comps.Of(ti)
		}
	}
	if cert.DstComponent == cert.SrcComponent {
		return nil
	}
	return cert
}

// entry maps an original node to its walk entry point.
func (r *Router) entry(s graph.NodeID) (graph.NodeID, error) {
	if r.red == nil {
		if r.orig.Degree(s) == 0 {
			return 0, fmt.Errorf("%w: %d", ErrIsolatedSource, s)
		}
		return s, nil
	}
	e, ok := r.red.Entry(s)
	if !ok {
		return 0, fmt.Errorf("route: %w: %d", graph.ErrNodeNotFound, s)
	}
	return e, nil
}

// original projects a work-graph node to the original node it simulates
// (identity under the ablation).
func (r *Router) original(v graph.NodeID) graph.NodeID {
	if r.red != nil {
		if o, ok := r.red.Original(v); ok {
			return o
		}
	}
	return v
}

// maxBound is the doubling loop's cap: Config.MaxBound, or 4·|V(G′)|,
// always sufficient for a universal sequence.
func (r *Router) maxBound() int {
	if r.cfg.MaxBound > 0 {
		return r.cfg.MaxBound
	}
	if r.flat != nil {
		return 4 * r.flat.NumNodes()
	}
	return 4 * r.WorkGraph().NumNodes()
}

// sequence returns T_bound for this protocol instance, in the compiled
// form (length frozen at construction) so the per-hop bounds check costs no
// recomputation.
func (r *Router) sequence(bound int) ues.Sequence {
	if r.cfg.SequenceFactory != nil {
		return r.cfg.SequenceFactory(bound)
	}
	base := 3
	if r.cfg.NoDegreeReduction {
		base = 0 // full-range directions, reduced mod deg(v) by the walk rule
	}
	p := &ues.Pseudorandom{
		Seed:         r.cfg.Seed,
		N:            bound,
		Base:         base,
		LengthFactor: r.cfg.LengthFactor,
	}
	return p.Compiled()
}

// flatPath reports whether this configuration lets rounds run on the
// compiled flat walker: the reference engine keeps every round whose
// instrumentation is requested (tracing callbacks, fault injection, wire
// format, custom memory budgets, restart confirmation, the ablation).
func (r *Router) flatPath() bool {
	return r.flat != nil && !r.cfg.DisableFlat && r.cfg.Confirm == ConfirmBacktrack &&
		r.cfg.Trace == nil && r.cfg.FaultHook == nil && !r.cfg.WireFormat && r.cfg.MemoryBudgetBits == 0
}

// flatSeq decides whether a round over seq may run on the compiled flat
// walker, and derives its inlined sequence form if so.
func (r *Router) flatSeq(seq ues.Sequence) (flatgraph.Seq, bool) {
	if !r.flatPath() {
		return flatgraph.Seq{}, false
	}
	return prfSeq(seq)
}

// prfSeq derives the inlined form of a PRF-backed base-3 sequence; other
// sequences have none.
func prfSeq(seq ues.Sequence) (flatgraph.Seq, bool) {
	prf, ok := seq.(ues.PRFBacked)
	if !ok {
		return flatgraph.Seq{}, false
	}
	seed, base := prf.PRFParams()
	if base != 3 {
		return flatgraph.Seq{}, false
	}
	return flatgraph.Seq{Seed: seed, Base: 3, Length: seq.Len()}, true
}

func (r *Router) engineOptions() []netsim.Option {
	budget := r.cfg.MemoryBudgetBits
	if budget == 0 {
		budget = DefaultMemoryBudget(r.WorkGraph().NumNodes())
	}
	opts := []netsim.Option{netsim.WithMemoryBudget(budget)}
	if r.cfg.Trace != nil {
		opts = append(opts, netsim.WithTrace(r.cfg.Trace))
	}
	if r.cfg.FaultHook != nil {
		opts = append(opts, netsim.WithFault(r.cfg.FaultHook))
	}
	if r.cfg.WireFormat {
		opts = append(opts, netsim.WithWireFormat())
	}
	return opts
}

// coverSet is the node set a local cover walk visited, in the form the walk
// built it: dense flags over the flat snapshot, or work-graph IDs on the
// reference path.
type coverSet struct {
	dense []bool
	ids   map[graph.NodeID]bool
}

// cover walks T_bound from the entry position start to its end and returns
// the set of nodes it visited: the local simulation of the forward walk,
// with no metering and no messages.
func (r *Router) cover(start graph.NodeID, bound int) (coverSet, error) {
	seq := r.sequence(bound)
	if fs, ok := r.flatSeq(seq); ok {
		si, ok := r.flat.Index(start)
		if !ok {
			return coverSet{}, fmt.Errorf("route: cover check: %w: %d", graph.ErrNodeNotFound, start)
		}
		visited := make([]bool, r.flat.NumNodes())
		if _, err := r.flat.CoverWalk(si, fs, visited, nil); err != nil {
			return coverSet{}, fmt.Errorf("route: cover check: %w", err)
		}
		return coverSet{dense: visited}, nil
	}
	work := r.WorkGraph()
	visited := map[graph.NodeID]bool{start: true}
	pos := ues.Start(start)
	for i := 1; i <= seq.Len(); i++ {
		next, err := ues.Step(work, pos, seq.At(i))
		if err != nil {
			return coverSet{}, fmt.Errorf("route: cover check: %w", err)
		}
		pos = next
		visited[pos.Node] = true
	}
	return coverSet{ids: visited}, nil
}

// covered runs the §4 closure check for T_bound from the entry position:
// it walks the sequence, collects the visited set V, and reports whether
// every neighbour of V is in V (in which case V equals the component of s
// and a failed search is definitive). It returns V as well. This is the
// simulator-local equivalent of CountNodes' Retrieve loops; the
// message-faithful version with its full quadratic message cost lives in
// package count.
func (r *Router) covered(start graph.NodeID, bound int) (bool, coverSet, error) {
	v, err := r.cover(start, bound)
	if err != nil {
		return false, v, err
	}
	if v.ids == nil {
		return r.flat.Closed(v.dense), v, nil
	}
	work := r.WorkGraph()
	for u := range v.ids {
		for p := 0; p < work.Degree(u); p++ {
			h, err := work.Neighbor(u, p)
			if err != nil {
				return false, v, err
			}
			if !v.ids[h.To] {
				return false, v, nil
			}
		}
	}
	return true, v, nil
}

// originals projects a cover set onto the original nodes it simulates, in
// increasing order.
func (r *Router) originals(v coverSet) []graph.NodeID {
	seen := make(map[graph.NodeID]bool)
	for i, ok := range v.dense {
		if ok {
			seen[r.flat.OriginalOf(int32(i))] = true
		}
	}
	for u := range v.ids {
		seen[r.original(u)] = true
	}
	return slices.Sorted(maps.Keys(seen))
}

// routeHandler is Algorithm Route as a stateless per-node handler.
type routeHandler struct {
	seq        ues.Sequence
	originalOf func(graph.NodeID) graph.NodeID
	confirm    ConfirmMode
}

// charge meters the handler's working registers: a constant number of
// words, each O(log n) bits. The meter aborts the run if a handler ever
// exceeded its O(log n) budget.
func charge(mem *netsim.Memory, values ...int64) error {
	for _, v := range values {
		w := bits.Len64(uint64(abs64(v))) + 1
		if err := mem.Charge(w); err != nil {
			return err
		}
	}
	return nil
}

func abs64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}

// OnMessage implements the pseudocode of §3 verbatim (with the index
// discipline documented in the package comment).
func (rh *routeHandler) OnMessage(self graph.NodeID, inPort, degree int, h *netsim.Header, mem *netsim.Memory) (netsim.Decision, error) {
	selfOrig := rh.originalOf(self)
	if err := charge(mem, int64(self), int64(selfOrig), int64(inPort), int64(degree), h.Index); err != nil {
		return netsim.Decision{}, err
	}
	if rh.confirm == ConfirmRestart {
		return rh.onRestartMessage(selfOrig, inPort, degree, h, mem)
	}

	if h.Dir == netsim.Backward {
		// "if dir = back and v = s: return status".
		if selfOrig == h.Src {
			return netsim.Decision{Kind: netsim.Deliver}, nil
		}
		if h.Index < 1 {
			// Only churn strands a confirmation like this: on a fixed graph
			// the unwind reaches the source at index 0 at the latest.
			return netsim.Decision{}, flatgraph.ErrUnwound
		}
		t := rh.seq.At(int(h.Index))
		if err := charge(mem, int64(t)); err != nil {
			return netsim.Decision{}, err
		}
		out := ues.PrevPort(degree, inPort, t)
		h.Index--
		return netsim.Decision{Kind: netsim.Send, OutPort: out}, nil
	}

	// Forward direction.
	// "if dir = forward and v = t: dir := back, i := i-1, status :=
	// success, send message back".
	if selfOrig == h.Dst {
		h.Dir = netsim.Backward
		h.Status = netsim.StatusSuccess
		h.Index--
		return netsim.Decision{Kind: netsim.Send, OutPort: inPort}, nil
	}
	// "if dir = forward and i > Ln: dir := back, i := i-1, status :=
	// failure, send message back".
	if int(h.Index) > rh.seq.Len() {
		h.Dir = netsim.Backward
		h.Status = netsim.StatusFailure
		h.Index--
		return netsim.Decision{Kind: netsim.Send, OutPort: inPort}, nil
	}
	t := rh.seq.At(int(h.Index))
	if err := charge(mem, int64(t)); err != nil {
		return netsim.Decision{}, err
	}
	out := ues.NextPort(degree, inPort, t)
	h.Index++
	return netsim.Decision{Kind: netsim.Send, OutPort: out}, nil
}

// onRestartMessage implements the ConfirmRestart ablation. The message
// only ever travels forward. Phase is encoded in Status: None = searching
// for Dst; Success/Failure = confirming back to Src via a fresh
// exploration (index reset to 1 at the turnaround).
func (rh *routeHandler) onRestartMessage(selfOrig graph.NodeID, inPort, degree int, h *netsim.Header, mem *netsim.Memory) (netsim.Decision, error) {
	searching := h.Status == netsim.StatusNone
	if searching && selfOrig == h.Dst {
		// Found t: flip to the confirmation phase and keep walking with a
		// fresh index, now hunting for s.
		h.Status = netsim.StatusSuccess
		h.Index = 1
		searching = false
	} else if !searching && selfOrig == h.Src {
		return netsim.Decision{Kind: netsim.Deliver}, nil
	}
	if int(h.Index) > rh.seq.Len() {
		if searching {
			h.Status = netsim.StatusFailure
			h.Index = 1
		} else {
			// The confirmation leg itself ran out of sequence: the round
			// is inconclusive and the source never hears back — the
			// reliability gap of non-backtracking confirmations.
			return netsim.Decision{Kind: netsim.Drop}, nil
		}
	}
	t := rh.seq.At(int(h.Index))
	if err := charge(mem, int64(t)); err != nil {
		return netsim.Decision{}, err
	}
	out := ues.NextPort(degree, inPort, t)
	h.Index++
	return netsim.Decision{Kind: netsim.Send, OutPort: out}, nil
}
