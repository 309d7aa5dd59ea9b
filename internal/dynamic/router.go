package dynamic

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/chaos"
	"repro/internal/degred"
	"repro/internal/flatgraph"
	"repro/internal/graph"
	"repro/internal/netsim"
	"repro/internal/route"
	"repro/internal/trace"
	"repro/internal/ues"
)

// ErrRoundsExhausted reports that the router hit its round budget without
// obtaining a verdict — the dynamic analogue of route.ErrSequenceExhausted,
// reachable only when the schedule keeps breaking rounds faster than the
// walk completes them (e.g. a relentless adversary). It is an explicit
// error, never a wrong verdict.
var ErrRoundsExhausted = errors.New("dynamic: round budget exhausted without a verdict")

// Config parameterizes a dynamic Router. The zero value is usable: paper
// defaults for the protocol, and the world advancing every DefaultHopsPerEpoch
// hops.
type Config struct {
	// Seed selects the exploration sequence family T_n (shared protocol
	// configuration, identical for every node and every snapshot).
	Seed uint64
	// LengthFactor scales sequence lengths (ues.Length); 0 = default.
	LengthFactor int
	// KnownN, if > 0, fixes the sequence bound instead of doubling.
	KnownN int
	// MaxBound caps the doubling loop (0 = 4·|V(G′)| of the snapshot
	// current at each round start).
	MaxBound int
	// HopsPerEpoch is how many message hops elapse between epochs — the
	// coupling between protocol time and topology time. 0 = DefaultHopsPerEpoch;
	// negative freezes the clock (the world never advances).
	HopsPerEpoch int
	// MaxRounds bounds the retry loop (0 = DefaultMaxRounds).
	MaxRounds int
	// Lookahead bounds the probe's next-link scan, in hops of G′
	// (0 = DefaultLookahead).
	Lookahead int
	// DisableFlat drives the walk through the netsim reference stepper and
	// the stateless per-node handler instead of the compiled flat stepper.
	// The two are hop-for-hop identical (pinned by the differential
	// tests); the reference path exists for those tests and debugging.
	// Budgeted routing (RouteBudgeted) requires the flat path.
	DisableFlat bool
	// DisableCertificates skips the O(1) component-index check at route
	// start, forcing even provably-unreachable pairs to burn the walk.
	// Verdicts are identical either way; the flag exists for differential
	// tests and for measuring the full doubling burn.
	DisableCertificates bool
}

// Defaults for the dynamics knobs.
const (
	DefaultHopsPerEpoch = 64
	DefaultMaxRounds    = 64
	DefaultLookahead    = 32
)

func (c Config) hopsPerEpoch() int {
	if c.HopsPerEpoch == 0 {
		return DefaultHopsPerEpoch
	}
	if c.HopsPerEpoch < 0 {
		return 0
	}
	return c.HopsPerEpoch
}

func (c Config) maxRounds() int {
	if c.MaxRounds <= 0 {
		return DefaultMaxRounds
	}
	return c.MaxRounds
}

func (c Config) lookahead() int {
	if c.Lookahead <= 0 {
		return DefaultLookahead
	}
	return c.Lookahead
}

// Result is the outcome of a dynamic route.
type Result struct {
	// Status is StatusSuccess if (a gadget of) t was physically reached,
	// StatusFailure if the §4 closure check certified, on the topology at
	// decision time, that t lies outside the source component.
	Status netsim.Status
	// Hops is the total message hops across all rounds and snapshots.
	Hops int64
	// Rounds is the number of rounds run (including aborted ones).
	Rounds int
	// AbortedRounds counts rounds abandoned because topology change broke
	// the confirmation leg (the walk resumed on a snapshot where the
	// backtrack could not complete).
	AbortedRounds int
	// Bound is the sequence bound of the terminal round.
	Bound int
	// Epochs is how many epochs the world advanced during this route.
	Epochs int
	// Recompiles is how many degree-reduction + snapshot recompiles the
	// route triggered (cache misses; epochs that left the topology
	// untouched cost nothing).
	Recompiles int
	// Resumptions counts mid-walk snapshot migrations: the stateless
	// header carried onto a freshly compiled topology.
	Resumptions int
	// MaxHeaderBits is the largest serialized header observed — the
	// O(log n) overhead claim measured under dynamics.
	MaxHeaderBits int
	// Certificate is non-nil when a failure verdict was answered in O(1)
	// from the component index of the snapshot current at route start,
	// instead of by walking the doubling budget.
	Certificate *route.Certificate
	// Exhausted is non-empty when the walk stopped on a budget or deadline
	// instead of a verdict; Cursor then holds the resume position.
	Exhausted route.ExhaustReason
	// Cursor continues an exhausted walk in a later RouteBudgeted call.
	Cursor *route.Cursor
}

// Router routes messages over an evolving World, advancing the walk
// hop-by-hop and the world every HopsPerEpoch hops. It holds no state
// between Route calls beyond what the World itself carries.
//
// Any number of Routers may drive one shared World concurrently: each
// walk runs on the immutable snapshot current at its last epoch boundary,
// and the World serializes epoch advances and shares recompiles. On a
// shared world the per-Result Epochs/Recompiles counters attribute
// whatever happened during the route, which may include epochs triggered
// by concurrent walks.
type Router struct {
	w   *World
	cfg Config
}

// NewRouter builds a dynamic router over w.
func NewRouter(w *World, cfg Config) *Router {
	return &Router{w: w, cfg: cfg}
}

// World returns the world this router drives.
func (r *Router) World() *World { return r.w }

// Route sends a message from s to t over the evolving topology and
// returns the outcome learned at s. Routing to t == s succeeds trivially.
// The round structure is the static router's doubling loop — the same walk
// driver — with two dynamic additions: a round whose confirmation is broken
// by churn is retried rather than failed, and a failed round's verdict is
// only accepted after the closure check passes on the instantaneous
// topology.
func (r *Router) Route(s, t graph.NodeID) (*Result, error) {
	return r.RouteBudgeted(context.Background(), s, t, 0, nil)
}

// RouteBudgeted is Route with bounded work: the walk stops after maxHops
// message hops (0 = unlimited) or when ctx expires — deadlines are checked
// at round starts and epoch boundaries, never per hop — returning a Result
// with Exhausted set and a Cursor that continues the walk in a later call
// exactly where it stopped. Pass cur = nil for a fresh walk. A cursor
// minted on a snapshot the world has since recompiled re-enters at the
// canonical gadget of the original node it was at, the same rule a
// mid-walk epoch recompile applies. Budgeted routing requires the compiled
// flat path; DisableFlat configurations get route.ErrBudgetUnsupported.
//
// The span ctx carries (trace.FromContext) records one child span per
// round with per-hop walk events, and timed events for epoch advances,
// snapshot resumptions, and aborted rounds; a nil span routes identically.
func (r *Router) RouteBudgeted(ctx context.Context, s, t graph.NodeID, maxHops int64, cur *route.Cursor) (*Result, error) {
	if !r.w.HasNode(s) {
		return nil, fmt.Errorf("dynamic: source: %w: %d", graph.ErrNodeNotFound, s)
	}
	if s == t {
		return &Result{Status: netsim.StatusSuccess}, nil
	}
	// Warm the compile cache before counting: Recompiles measures what the
	// topology churn cost this route, not the unavoidable initial compile.
	p := &worldWalk{r: r, chaos: r.w.Chaos()}
	snap, ver, err := p.Snapshot()
	if err != nil {
		return &Result{}, err
	}
	recompBase := r.w.Recompiles()

	// The O(1) reachability answer, from the component index of the
	// snapshot current right now. A resumed walk skips it: its budget was
	// already committed to walking, and the walk's own verdict is sound.
	if cur == nil {
		if cert := snap.Certificate(s, t); cert != nil {
			cert.Epoch, cert.Version = p.epoch, ver
			if sp := trace.FromContext(ctx); sp.Recording() {
				sp.Event("dynamic.certificate",
					trace.Int("src_component", int64(cert.SrcComponent)),
					trace.Int("dst_component", int64(cert.DstComponent)),
					trace.Int("components", int64(cert.Components)),
					trace.Int("version", int64(cert.Version)))
			}
			return &Result{Status: netsim.StatusFailure, Certificate: cert}, nil
		}
	}

	rr, st, err := route.Walk(ctx, p, "dynamic", s, t, maxHops, cur)
	if rr == nil {
		return nil, err
	}
	return &Result{
		Status:        rr.Status,
		Hops:          rr.Hops,
		Rounds:        st.Rounds,
		AbortedRounds: st.AbortedRounds,
		Bound:         rr.Bound,
		Epochs:        st.Epochs,
		Recompiles:    int(r.w.Recompiles() - recompBase),
		Resumptions:   st.Resumptions,
		MaxHeaderBits: rr.MaxHeaderBits,
		Exhausted:     rr.Exhausted,
		Cursor:        rr.Cursor,
	}, err
}

// worldWalk is the snapshot provider that puts one walk of the route driver
// on the evolving world: the driver consults it at round starts and at
// hop-segment ends, where it advances the epoch clock, pays the per-hop
// chaos delay, enforces the per-round hop cap, and moves the walk onto each
// recompiled snapshot.
type worldWalk struct {
	r      *Router
	chaos  *chaos.Injector
	red    *degred.Reduced // the snapshot router was built for
	router *route.Router
	epoch  int // the world epoch the last Snapshot was read at
}

// Snapshot implements route.Provider: the world's current compiled
// snapshot, wrapped in a router speaking this Router's protocol, and the
// version it was compiled at. The wrapper carries no original graph — the
// world validates endpoints itself — so the driver never reads the
// mutable world graph.
func (p *worldWalk) Snapshot() (*route.Router, uint64, error) {
	red, _, epoch, ver, err := p.r.w.compiled()
	if err != nil {
		return nil, 0, err
	}
	p.epoch = epoch
	if red != p.red {
		c := p.r.cfg
		rr, err := route.NewFromReduced(nil, red, route.Config{
			Seed: c.Seed, LengthFactor: c.LengthFactor, KnownN: c.KnownN, MaxBound: c.MaxBound,
			DisableFlat: c.DisableFlat, DisableCertificates: c.DisableCertificates,
		})
		if err != nil {
			return nil, 0, err
		}
		p.red, p.router = red, rr
	}
	return p.router, ver, nil
}

// roundHopCap bounds one round's total hops across resumptions. A clean
// round takes at most 2L+2 hops (the index is monotone in each phase); the
// slack absorbs resumption turbulence, and hitting the cap aborts the round
// rather than erroring.
func (p *worldWalk) roundHopCap(w *route.Walker) int64 {
	return 4*int64(ues.Length(w.State().Bound, p.r.cfg.LengthFactor)) + 16
}

// Limit implements route.Provider: a segment ends at the next epoch
// boundary or one hop past the round's hop cap, whichever comes first.
func (p *worldWalk) Limit(w *route.Walker) int64 {
	limit := p.roundHopCap(w) + 1 - w.RoundHops()
	if per := p.r.cfg.hopsPerEpoch(); per > 0 {
		limit = min(limit, int64(max(per-w.State().SinceEpoch, 1)))
	}
	return limit
}

// SegmentEnd implements route.Provider. The epoch phase deliberately
// carries across rounds: topology time is global, not per-round.
func (p *worldWalk) SegmentEnd(w *route.Walker, hops int64) (epoch, abort bool, err error) {
	st := w.State()
	st.SinceEpoch += int(hops)
	if p.chaos != nil {
		for range hops {
			p.chaos.HopDelay()
		}
	}
	if rh := w.RoundHops(); rh > p.roundHopCap(w) {
		w.Span().Event("dynamic.round_abort", trace.String("reason", "hop_cap"), trace.Int("hops", rh))
		return false, true, nil
	}
	per := p.r.cfg.hopsPerEpoch()
	if per <= 0 || st.SinceEpoch < per {
		return false, false, nil
	}
	st.SinceEpoch = 0
	ver := p.r.w.Version()
	probe := Probe{Active: true, At: w.At(), nextLink: func() (Edge, bool) {
		u, v, ok := w.NextLink(p.r.cfg.lookahead())
		return Edge{U: u, V: v}, ok
	}}
	if err := p.r.w.Advance(probe); err != nil {
		return false, false, err
	}
	st.Epochs++
	w.Span().Event("dynamic.epoch", trace.Int("epoch", int64(st.Epochs)), trace.Int("hops", w.RoundHops()))
	if p.r.w.Version() != ver {
		rr, v, err := p.Snapshot()
		if err != nil {
			return false, false, err
		}
		if err := w.Reenter(rr, v); err != nil {
			return false, false, err
		}
	}
	return true, false, nil
}

// Retry implements route.Provider: the round budget bounds the retries.
// The interrupted round of a resumed walk always gets to finish, even when
// the resuming router's budget is tighter than the minter's.
func (p *worldWalk) Retry(w *route.Walker) error {
	if rounds := w.State().Rounds; rounds >= p.r.cfg.maxRounds() {
		return fmt.Errorf("%w: %d rounds", ErrRoundsExhausted, rounds)
	}
	return nil
}

// Closed implements route.Provider with the decision-time §4 closure check
// on the instantaneous topology: walk T_bound from the source entry, and
// accept the failure verdict only if the visited set is closed under
// neighbourhood (it equals the source component) and contains no gadget of
// t. This is what makes a dynamic failure verdict oracle-sound: it
// certifies unreachability on the topology as it stands at decision time.
func (p *worldWalk) Closed(w *route.Walker) (bool, error) {
	st := w.State()
	red, flat, err := p.r.w.Compiled()
	if err != nil {
		return false, err
	}
	entry, ok := red.Entry(st.Src)
	if !ok {
		return false, fmt.Errorf("dynamic: cover check: %w: %d", graph.ErrNodeNotFound, st.Src)
	}
	dense, ok := flat.Index(entry)
	if !ok {
		return false, fmt.Errorf("dynamic: cover check: gadget %d missing from snapshot", entry)
	}
	seq := flatgraph.Seq{Seed: p.r.cfg.Seed, Base: 3, Length: ues.Length(st.Bound, p.r.cfg.LengthFactor)}
	visited := make([]bool, flat.NumNodes())
	if _, err := flat.CoverWalk(dense, seq, visited, nil); err != nil {
		return false, fmt.Errorf("dynamic: cover check: %w", err)
	}
	if !flat.Closed(visited) {
		return false, nil
	}
	for i, vis := range visited {
		if vis && flat.OriginalOf(int32(i)) == st.Dst {
			return false, nil // t is reachable right now; not a failure
		}
	}
	return true, nil
}
