package route

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/flatgraph"
	"repro/internal/graph"
	"repro/internal/netsim"
	"repro/internal/trace"
)

// Provider puts a walk on an evolving topology (package dynamic's worlds).
// The driver consults it at round starts and at hop-segment ends, so
// epochs, recompiles, and per-hop costs enter the walk between segments and
// never inside the hop loop. A static Router walks without one.
type Provider interface {
	// Snapshot returns a router over the topology current now and the
	// topology version it was compiled at. The driver calls it at every
	// round start, where a round begins at the source's entry on that
	// snapshot, and after a failed round, whose §4 closure check it decides
	// on that snapshot.
	Snapshot() (*Router, uint64, error)
	// Limit caps the hops of the live round's next segment.
	Limit(w *Walker) int64
	// SegmentEnd accounts the hops the last segment walked. It may advance
	// the world and move the walk onto a recompiled snapshot (Reenter).
	// epoch reports that an epoch boundary passed, where the driver checks
	// the context; abort that churn broke the round, which is retried.
	SegmentEnd(w *Walker, hops int64) (epoch, abort bool, err error)
	// Retry is consulted after a round that reached no verdict; a non-nil
	// error ends the walk.
	Retry(w *Walker) error
}

// Walker is the §3 walk in flight: the one driver behind Route,
// RouteBudgeted, Broadcast, the step-at-a-time composition of package
// hybrid, and the dynamic router. Its state is a Cursor — the bound, the
// counters, and the statistics accumulated so far; the position and header
// are minted from the live round when the walk stops early — plus the live
// round stepper: the compiled flat stepper, or the netsim reference stepper
// when the router's configuration needs the reference engine's
// instrumentation. It runs the bound schedule, each round in hop segments,
// the §4 closure check after a failed round, and stops on a verdict, on the
// hop budget, or on the context, checked at round starts (and, on an
// evolving topology, at epoch boundaries) but never per hop. It does not
// simulate steps whose outcome is known: a static round that walk drives
// starts where the last one turned around (retrace), a flat round whose
// segment covers its backward walk computes it at the turnaround
// (flatgraph.RouteStepper.Run), and the component index answers the
// closure checks it decides, so a round may count more hops than it
// walks.
type Walker struct {
	r    *Router
	prov Provider
	ns   string // span and event namespace ("route", "dynamic")
	cur  Cursor
	res  *Result

	flat   flatgraph.RouteStepper
	ref    *netsim.Stepper // the live round, when it runs on the reference engine
	seqLen int
	// jump is where run may move the fresh live round from the source's
	// entry, and back where the round it retraces delivered (retrace;
	// index 0: nowhere). Step never moves it: the hybrid race counts every
	// activation.
	jump, back walkPos

	bounded bool   // a budget, deadline, or cursor is in play: rounds must run flat
	cover   *Cover // the last closure check's walk, for Broadcast
	sp, rsp *trace.Span
	log     *hopLog // the live sampled round's replay log (nil until the round enters the flat path)
	done    bool
	err     error
}

// hopLog is a sampled round's replay log. Exploration sequences are
// reversible (§2, prev_v), so a sampled round walks exactly as an unsampled
// one and records no hop as it walks it. When the round's span ends, the
// span takes the log (trace.Span.Tail); only if the trace is kept does
// replay rewind the copies of the stepper by the last ring of hops, which
// it reports as it passes back over them. A re-entry moves the message to
// another snapshot, and a rewind cannot cross it, so the log keeps the
// stepper each time the round leaves a snapshot; each copy carries its own
// immutable snapshot.
type hopLog struct {
	ring  int64                    // the span's hop ring capacity
	total int64                    // hops the round's span counts, skipped ones included
	live  bool                     // the live stepper walks the span's round
	parts []flatgraph.RouteStepper // the round's steppers as it left each snapshot, oldest first
}

// walkPos is a position of a flat round: the dense node, the arrival port,
// and the header index the message carries there.
type walkPos struct {
	node, inPort int32
	index        int64
}

// leave keeps the live stepper st as the round leaves its snapshot. It
// drops the parts no tail can reach, keeping only the shortest suffix whose
// hops add up to a ring: a round that re-enters a snapshot at every epoch
// must not pin each one.
func (l *hopLog) leave(st *flatgraph.RouteStepper) {
	if l == nil || !l.live {
		return
	}
	l.parts, l.live = append(l.parts, *st), false
	keep, sum := len(l.parts), int64(0)
	for keep > 0 && sum < l.ring {
		keep--
		sum += l.parts[keep].Hops()
	}
	n := copy(l.parts, l.parts[keep:])
	clear(l.parts[n:])
	l.parts = l.parts[:n]
}

// replay emits the round's last ring of hops into hop, newest first,
// straight from rewinding the steppers it kept, the newest first and each
// by its own hops, until the ring is full. Only the oldest may rewind past
// where it was armed, into the hops the round skipped. It consumes the
// log.
func (l *hopLog) replay(hop func(trace.HopEvent), s, t graph.NodeID) {
	sink := func(node graph.NodeID, index int64, backward bool) {
		hop(trace.HopEvent{
			Node:       int64(node),
			Index:      index,
			HeaderBits: int32(headerBits(s, t, index)),
			Backward:   backward,
		})
	}
	rest := min(l.total, l.ring)
	for k := len(l.parts) - 1; k >= 0 && rest > 0; k-- {
		n := rest
		if k > 0 {
			n = min(n, l.parts[k].Hops())
		}
		l.parts[k].Rewind(n, sink)
		rest -= n
	}
}

// nextBound is the §3 doubling schedule, the only place it is computed: the
// first round runs at 4, each later round at growth times its predecessor
// (growth < 2 means the paper's 2), clamped to maxBound but never below the
// predecessor (a dynamic world's bound cap can shrink). A promised bound
// known > 0 fixes every round.
func nextBound(prev, growth, maxBound, known int) int {
	if known > 0 {
		return known
	}
	b := 4
	if prev > 0 {
		b = prev * max(growth, 2)
	}
	return max(min(b, maxBound), prev)
}

// Route sends a message from s to t and returns the outcome learned at s.
// Routing to t == s succeeds trivially with zero hops. t need not exist in
// the graph — a name outside the component yields StatusFailure, which is
// the point of guaranteed termination. It is the walk driver with no limit.
func (r *Router) Route(s, t graph.NodeID) (*Result, error) {
	return r.RouteBudgeted(context.Background(), s, t, 0, nil)
}

// RouteBudgeted is Route with bounded work: the walk performs at most
// maxHops message hops (0 = unlimited) and honors ctx's deadline or
// cancellation, checked at round starts rather than per hop. When either
// limit strikes first the call returns with Status none, Exhausted set, and
// a Cursor from which a later call continues the walk exactly where it
// stopped — a walk split across continuations is hop-for-hop identical to
// the uninterrupted one (verdict, total hops, header bits; pinned by
// differential tests). Pass cur (from a prior exhausted Result) to
// continue, nil to start fresh. Bounded work runs only on the compiled
// flat path; instrumented or ablated configs return ErrBudgetUnsupported
// unless the call is unbounded (maxHops 0, no cursor, a ctx that is never
// canceled), which is exactly Route.
//
// The span ctx carries (trace.FromContext) records one child span per
// round with the walk's hop tail, plus certificate, closure-check, resume,
// and exhaustion events; a nil span routes identically.
func (r *Router) RouteBudgeted(ctx context.Context, s, t graph.NodeID, maxHops int64, cur *Cursor) (*Result, error) {
	if !r.orig.HasNode(s) {
		return nil, fmt.Errorf("route: source: %w: %d", graph.ErrNodeNotFound, s)
	}
	if s == t {
		return &Result{Status: netsim.StatusSuccess}, nil
	}
	sp := trace.FromContext(ctx)
	if cur == nil {
		if cert := r.Certificate(s, t); cert != nil {
			if sp.Recording() {
				sp.Event("route.certificate",
					trace.Int("src_component", int64(cert.SrcComponent)),
					trace.Int("dst_component", int64(cert.DstComponent)),
					trace.Int("components", int64(cert.Components)))
			}
			return &Result{Status: netsim.StatusFailure, Certificate: cert}, nil
		}
	}
	w := &Walker{r: r, ns: "route", cur: Cursor{Src: s, Dst: t}, res: &Result{}, sp: sp}
	return w.walk(ctx, maxHops, cur)
}

// Walk runs the walk from s to t over the evolving topology p provides —
// the driver behind the dynamic router — with RouteBudgeted's limits,
// cursor, and ctx-carried span, naming spans and events under ns. It
// returns the Result and the walk's final state (the epoch counters the
// Result does not carry).
func Walk(ctx context.Context, p Provider, ns string, s, t graph.NodeID, maxHops int64, cur *Cursor) (*Result, Cursor, error) {
	w := &Walker{prov: p, ns: ns, cur: Cursor{Src: s, Dst: t}, res: &Result{}, sp: trace.FromContext(ctx)}
	res, err := w.walk(ctx, maxHops, cur)
	return res, w.cur, err
}

// Walker returns a steppable guaranteed route from s to t, including the
// doubling outer loop: each Step is one handler activation, so the
// Corollary 2 composition (package hybrid) can interleave it with a
// probabilistic router. The inter-round closure check runs locally and is
// not charged as steps.
func (r *Router) Walker(s, t graph.NodeID) (*Walker, error) {
	if !r.orig.HasNode(s) {
		return nil, fmt.Errorf("route: source: %w: %d", graph.ErrNodeNotFound, s)
	}
	w := &Walker{r: r, ns: "route", cur: Cursor{Src: s, Dst: t}, res: &Result{}}
	if s == t {
		w.done, w.res.Status = true, netsim.StatusSuccess
		return w, nil
	}
	if err := w.startRound(); err != nil {
		return nil, err
	}
	return w, nil
}

// Step advances the guaranteed route by one activation. It returns true
// when the route has terminated (success, definitive failure, or error).
func (w *Walker) Step() bool {
	if w.done {
		return true
	}
	if _, ended := w.segment(1); ended {
		w.endRound()
	}
	return w.done
}

// Done reports whether the route has terminated.
func (w *Walker) Done() bool { return w.done }

// Status returns the terminal status (valid once Done).
func (w *Walker) Status() netsim.Status { return w.res.Status }

// Hops returns the hops consumed so far across all rounds.
func (w *Walker) Hops() int64 {
	if w.done {
		return w.cur.Hops
	}
	return w.cur.Hops + w.RoundHops()
}

// Err returns the terminal error, if any.
func (w *Walker) Err() error { return w.err }

// State returns the walk's live state; providers keep the epoch clock
// (SinceEpoch, Epochs) in it.
func (w *Walker) State() *Cursor { return &w.cur }

// RoundHops returns the hops the live round has walked.
func (w *Walker) RoundHops() int64 {
	if w.ref != nil {
		return w.cur.RoundHops + w.ref.Result().Hops
	}
	return w.cur.RoundHops + w.flat.Hops()
}

// SeqLen returns the length of the live round's sequence, L_bound.
func (w *Walker) SeqLen() int { return w.seqLen }

// Span returns the live round's span (nil when unsampled).
func (w *Walker) Span() *trace.Span { return w.rsp }

// At returns the original node the message stands at.
func (w *Walker) At() graph.NodeID {
	if w.ref != nil {
		node, _ := w.ref.At()
		return w.r.original(node)
	}
	node, _ := w.flat.Position()
	return w.r.flat.OriginalOf(node)
}

// header returns the live round's header state.
func (w *Walker) header() (index int64, backward, success bool) {
	if w.ref != nil {
		h := w.ref.Header()
		return h.Index, h.Dir == netsim.Backward, h.Status == netsim.StatusSuccess
	}
	return w.flat.Index(), w.flat.Backward(), w.flat.Success()
}

// NextLink scans up to n activations ahead of the message on the current
// snapshot without moving it, and returns the first hop that crosses
// between two original nodes, as an ordered pair — the next real link the
// walk will ride.
func (w *Walker) NextLink(n int) (u, v graph.NodeID, ok bool) {
	f := w.r.flat
	fs, ok := w.r.prf(w.cur.Bound)
	if f == nil || !ok {
		return 0, 0, false
	}
	node, inPort := w.flat.Position()
	if w.ref != nil {
		at, port := w.ref.At()
		if node, ok = f.Index(at); !ok {
			return 0, 0, false
		}
		inPort = int32(port)
	}
	index, backward, success := w.header()
	var la flatgraph.RouteStepper
	if la.Reset(f, node, inPort, w.cur.Src, w.cur.Dst, fs, index, backward, success) != nil {
		return 0, 0, false
	}
	prev := node
	for range n {
		if la.Step() {
			return 0, 0, false
		}
		next, _ := la.Position()
		if ou, ov := f.OriginalOf(prev), f.OriginalOf(next); ou != ov {
			return min(ou, ov), max(ou, ov), true
		}
		prev = next
	}
	return 0, 0, false
}

// Reenter moves the live round onto snapshot r, compiled at version: the
// message re-enters at the canonical gadget of the original node it stands
// at, in-port 0, carrying its header — the stateless resumption of §3
// under churn.
func (w *Walker) Reenter(r *Router, version uint64) error {
	at := w.At()
	index, backward, success := w.header()
	w.fold()
	w.log.leave(&w.flat)
	w.r, w.cur.Version = r, version
	if err := w.enterAt(at, index, backward, success); err != nil {
		return err
	}
	w.cur.Resumptions++
	if w.rsp.Recording() {
		w.rsp.Event(w.ns+".resume",
			trace.Int("version", int64(version)), trace.Int("at", int64(at)),
			trace.Int("index", index), trace.Bool("backward", backward))
	}
	return nil
}

// walk opens the walk's first round — fresh, or the round cur interrupted —
// and drives it within the limits.
func (w *Walker) walk(ctx context.Context, maxHops int64, cur *Cursor) (*Result, error) {
	w.bounded = maxHops > 0 || cur != nil || ctx.Done() != nil
	var err error
	if cur != nil {
		err = w.resume(cur)
	} else {
		err = w.startRound()
	}
	if err != nil {
		w.endSpan()
		return nil, err
	}
	limit := int64(-1)
	if maxHops > 0 {
		limit = maxHops
	}
	w.run(ctx, limit)
	if w.res.Exhausted == "" {
		w.res.Hops, w.res.MaxHeaderBits, w.res.PeakMemoryBits = w.cur.Hops, w.cur.MaxHeaderBits, w.cur.PeakMemoryBits
	}
	return w.res, w.err
}

// run drives the walk until a verdict, an error, limit more hops (limit <
// 0: no limit), or ctx's cancellation.
func (w *Walker) run(ctx context.Context, limit int64) {
	roundStart := true
	for !w.done {
		if roundStart {
			if ctx.Err() != nil {
				w.exhaust(ExhaustDeadline)
				return
			}
			limit = w.jumpAhead(limit)
		}
		seg := limit
		if w.prov != nil {
			if l := w.prov.Limit(w); seg < 0 || l < seg {
				seg = l
			}
		}
		hops, ended := w.segment(seg)
		if limit > 0 {
			limit -= hops
		}
		if w.prov != nil && hops > 0 {
			epoch, abort, err := w.prov.SegmentEnd(w, hops)
			switch {
			case err != nil:
				w.fail(err)
				return
			case abort:
				w.closeRound(netsim.StatusNone)
				w.cur.AbortedRounds++
				w.nextRound()
				roundStart = true
				continue
			case epoch && !ended && ctx.Err() != nil:
				w.exhaust(ExhaustDeadline)
				return
			}
		}
		roundStart = ended
		if ended {
			w.endRound()
		} else if limit == 0 {
			w.exhaust(ExhaustBudget)
			return
		}
	}
}

// segment runs the live round for at most limit hops (limit < 0: to its
// end) and reports the hops walked and whether the round terminated.
func (w *Walker) segment(limit int64) (hops int64, ended bool) {
	if w.ref == nil {
		before := w.flat.Hops()
		ended = w.flat.Run(limit)
		hops = w.flat.Hops() - before
		if w.log != nil {
			w.log.total += hops
		}
		return hops, ended
	}
	out := w.ref.Result()
	before := out.Hops
	for !w.ref.Done() {
		if limit >= 0 && out.Hops-before >= limit {
			return out.Hops - before, false
		}
		w.ref.Step()
	}
	return out.Hops - before, true
}

// startRound begins a fresh round at the next bound of the schedule, from
// the source's entry on the current snapshot, and notes where run may
// move it further along (retrace) before the stepper forgets the last
// round's turnaround.
func (w *Walker) startRound() error {
	if w.prov != nil {
		if err := w.snapshot(); err != nil {
			return err
		}
	}
	prev := w.cur.Bound
	w.cur.Bound = nextBound(w.cur.Bound, w.r.cfg.GrowthFactor, w.r.maxBound(), w.r.cfg.KnownN)
	w.cur.Rounds++
	w.cur.RoundHops, w.cur.MaxIndex = 0, 1
	w.jump, w.back = w.retrace(prev)
	w.openRound()
	start, err := w.r.entry(w.cur.Src)
	if err != nil {
		return err
	}
	return w.enter(start, 0, 1, false, false)
}

// retrace returns where a fresh static round at w.cur.Bound may start
// instead of the source's entry, and where the last round delivered, or
// two zero walkPos. The walk is oblivious, and the sequence the last round
// ran out of on the flat stepper is a prefix of the new one, so the new
// round would retrace that round's walk hop for hop up to its turnaround,
// without meeting t; the last round already metered every activation on
// the way (in an earlier call, if the walk began at a cursor: the cursor
// carries its peaks). Its walk back ended at its last visit to a gadget of
// s, which is the new round's record too until its forward walk meets s
// again. A sampled round starts there too: its replay rewinds into the
// hops it skipped.
func (w *Walker) retrace(prevBound int) (turn, back walkPos) {
	node, inPort, ok := w.flat.Turn()
	if !ok || w.prov != nil {
		return walkPos{}, walkPos{}
	}
	prev, _ := w.r.flatSeq(prevBound)
	next, ok := w.r.flatSeq(w.cur.Bound)
	if !ok || next.Seed != prev.Seed || next.Base != prev.Base || next.Length <= prev.Length {
		return walkPos{}, walkPos{}
	}
	at, exit := w.flat.Position()
	return walkPos{node, inPort, int64(prev.Length) + 1}, walkPos{at, exit, w.flat.Index()}
}

// jumpAhead moves the fresh live round to w.jump when limit (< 0: none)
// covers the hops that skips, hands it the record of the last round's
// delivery (w.back), and returns what is left of limit. The skipped hops
// count as the round's own. A static round's span records them as
// skipped_hops.
func (w *Walker) jumpAhead(limit int64) int64 {
	at, back := w.jump, w.back
	w.jump, w.back = walkPos{}, walkPos{}
	var skip int64
	if at.index > 1 && (limit < 0 || limit >= at.index-1) {
		fs, _ := w.r.flatSeq(w.cur.Bound)
		// The stepper produced at on this snapshot, so Reset cannot refuse
		// it; if it did, the round would walk from the entry as it stands.
		if w.flat.Reset(w.r.flat, at.node, at.inPort, w.cur.Src, w.cur.Dst, fs, at.index, false, false) == nil {
			w.flat.Inherit(back.node, back.inPort, back.index)
			skip = at.index - 1
			w.cur.RoundHops = skip
			if limit > 0 {
				limit -= skip
			}
			if w.log != nil {
				w.log.total = skip
			}
		}
	}
	if w.prov == nil && w.rsp.Recording() {
		w.rsp.SetAttr(trace.Int("skipped_hops", skip))
	}
	return limit
}

// resume re-enters the round a cursor interrupted: exactly at its dense
// position when the topology version still matches, otherwise at the
// canonical gadget of the original node it was at (evolving topologies
// only).
func (w *Walker) resume(c *Cursor) error {
	if c.Src != w.cur.Src || c.Dst != w.cur.Dst {
		return fmt.Errorf("%w: cursor is for %d->%d, request is for %d->%d",
			ErrBadCursor, c.Src, c.Dst, w.cur.Src, w.cur.Dst)
	}
	if c.Bound < 1 || c.Index < 0 {
		return fmt.Errorf("%w: bound %d, index %d", ErrBadCursor, c.Bound, c.Index)
	}
	if w.prov != nil {
		if err := w.snapshot(); err != nil {
			return err
		}
	} else if c.Version != 0 {
		return fmt.Errorf("%w: dynamic-world cursor (version %d) on a static router", ErrBadCursor, c.Version)
	}
	fs, ok := w.r.flatSeq(c.Bound)
	if !ok {
		return ErrBudgetUnsupported
	}
	ver := w.cur.Version
	w.cur = *c
	w.cur.Version = ver
	w.cur.MaxIndex = max(c.MaxIndex, 1)
	w.openRound()
	if w.rsp.Recording() {
		w.rsp.Event(w.ns+".cursor_resume",
			trace.Int("bound", int64(c.Bound)), trace.Int("index", c.Index),
			trace.Bool("backward", c.Backward), trace.Int("round_hops", c.RoundHops))
	}
	var err error
	if c.Version == ver {
		err = w.enterFlat(c.Node, c.InPort, fs, c.Index, c.Backward, c.Success)
	} else if err = w.enterAt(c.At, c.Index, c.Backward, c.Success); err == nil {
		w.cur.Resumptions++
	}
	if err != nil {
		return fmt.Errorf("%w: %v", ErrBadCursor, err)
	}
	return nil
}

// snapshot moves the walk onto the provider's current topology.
func (w *Walker) snapshot() error {
	r, ver, err := w.prov.Snapshot()
	if err != nil {
		return err
	}
	w.r, w.cur.Version = r, ver
	return nil
}

// enterAt puts the live round at the canonical gadget of original node at.
func (w *Walker) enterAt(at graph.NodeID, index int64, backward, success bool) error {
	gadget, err := w.r.entry(at)
	if err != nil {
		return err
	}
	return w.enter(gadget, 0, index, backward, success)
}

// enter puts the live round at work-graph node (arrival port inPort) of the
// current snapshot, carrying the given header state, on the flat stepper
// when the configuration allows it and the reference engine otherwise.
func (w *Walker) enter(node graph.NodeID, inPort int, index int64, backward, success bool) error {
	if fs, ok := w.r.flatSeq(w.cur.Bound); ok {
		dense, ok := w.r.flat.Index(node)
		if !ok {
			return fmt.Errorf("route: %w: %d", graph.ErrNodeNotFound, node)
		}
		return w.enterFlat(dense, int32(inPort), fs, index, backward, success)
	}
	if w.bounded {
		return ErrBudgetUnsupported
	}
	seq := w.r.Sequence(w.cur.Bound)
	w.seqLen = seq.Len()
	h := netsim.Header{Src: w.cur.Src, Dst: w.cur.Dst, Dir: netsim.Forward, Status: netsim.StatusNone, Index: index}
	if backward {
		h.Dir, h.Status = netsim.Backward, netsim.StatusFailure
		if success {
			h.Status = netsim.StatusSuccess
		}
	}
	eng := netsim.NewEngine(w.r.WorkGraph(),
		&routeHandler{seq: seq, originalOf: w.r.original, confirm: w.r.cfg.Confirm},
		w.r.engineOptions()...)
	st, err := eng.Stepper(node, inPort, h, 2*int64(seq.Len())+8)
	if err != nil {
		return err
	}
	w.ref = st
	return nil
}

// enterFlat puts the live round on the flat stepper at a dense position; in
// a sampled round, the replay log then holds the stepper.
func (w *Walker) enterFlat(node, inPort int32, fs flatgraph.Seq, index int64, backward, success bool) error {
	w.ref, w.seqLen = nil, fs.Length
	if err := w.flat.Reset(w.r.flat, node, inPort, w.cur.Src, w.cur.Dst, fs, index, backward, success); err != nil {
		return err
	}
	if w.rsp.Recording() {
		if w.log == nil {
			w.log = &hopLog{ring: int64(w.rsp.HopRing())}
		}
		w.log.live = true
	}
	return nil
}

// headerBits is the serialized size of a header at index. src, dst, and
// the dir/status byte are size-constant across a round, so the largest
// header any activation observes is the one at the round's peak index.
func headerBits(s, t graph.NodeID, index int64) int {
	return netsim.Header{Src: s, Dst: t, Dir: netsim.Forward, Index: index}.Bits()
}

// endSpan closes the live round's span and hands it the round's replay
// log, with a copy of the live stepper when it walks the round; the next
// sampled round starts a log of its own.
func (w *Walker) endSpan() {
	if l := w.log; l != nil {
		if l.live {
			l.parts = append(l.parts, w.flat)
		}
		s, t := w.cur.Src, w.cur.Dst
		w.rsp.Tail(l.total, func(hop func(trace.HopEvent)) { l.replay(hop, s, t) })
		w.log = nil
	}
	w.rsp.End()
}

// openRound starts the live round's span.
func (w *Walker) openRound() {
	if !w.sp.Recording() {
		return
	}
	round, _ := walkNames(w.ns)
	w.rsp = w.sp.Child(round)
	w.rsp.SetAttr(trace.Int("round", int64(w.cur.Rounds)), trace.Int("bound", int64(w.cur.Bound)))
}

// walkNames returns the names a sampled round records under namespace ns:
// its span, ns + ".round", and the cover-check event of a failed round,
// ns + ".cover_check". They are spelled out for the two namespaces walks
// run under, so that a sampled round builds neither.
func walkNames(ns string) (round, coverCheck string) {
	switch ns {
	case "route":
		return "route.round", "route.cover_check"
	case "dynamic":
		return "dynamic.round", "dynamic.cover_check"
	}
	return ns + ".round", ns + ".cover_check"
}

// fold moves the live stepper's hops and metering into the walk state,
// before the stepper is replaced or its round closes.
func (w *Walker) fold() {
	if w.ref != nil {
		out := w.ref.Result()
		w.cur.RoundHops += out.Hops
		w.cur.MaxHeaderBits = max(w.cur.MaxHeaderBits, out.MaxHeaderBits)
		w.cur.PeakMemoryBits = max(w.cur.PeakMemoryBits, out.PeakMemoryBits)
		return
	}
	out := w.flat.Outcome()
	w.cur.RoundHops += out.Hops
	w.cur.MaxIndex = max(w.cur.MaxIndex, out.MaxIndex)
	w.cur.MaxHeaderBits = max(w.cur.MaxHeaderBits, headerBits(w.cur.Src, w.cur.Dst, w.cur.MaxIndex))
	w.cur.PeakMemoryBits = max(w.cur.PeakMemoryBits, out.PeakMemoryBits)
}

// closeRound folds the live round into the walk, records its RoundStat,
// and closes its span. It returns the round's hops.
func (w *Walker) closeRound(outcome netsim.Status) int64 {
	w.fold()
	hops := w.cur.RoundHops
	w.cur.Hops += hops
	w.cur.RoundHops = 0
	w.res.Rounds = append(w.res.Rounds, RoundStat{Bound: w.cur.Bound, SeqLen: w.seqLen, Hops: hops, Outcome: outcome})
	w.res.Bound = w.cur.Bound
	if w.rsp.Recording() {
		// A round on the reference path never arms the flat stepper, which
		// then reports 0.
		w.rsp.SetAttr(trace.Int("seq_len", int64(w.seqLen)), trace.Int("hops", hops), trace.Int("computed_hops", w.flat.Computed()),
			trace.Bool("success", outcome == netsim.StatusSuccess), trace.String("status", outcome.String()))
		w.endSpan()
		if w.ref != nil {
			w.sp.Event(w.ns+".round.netsim", trace.Int("bound", int64(w.cur.Bound)),
				trace.Int("hops", hops), trace.String("outcome", outcome.String()))
		}
	}
	return hops
}

// roundOutcome reports how the terminated live round ended: its verdict
// (StatusNone with a nil error when a restart confirmation ran out of
// sequence), the header index at delivery, and any error.
func (w *Walker) roundOutcome() (netsim.Status, int64, error) {
	if w.ref != nil {
		out := w.ref.Result()
		if err := w.ref.Err(); err != nil {
			return netsim.StatusNone, 0, err
		}
		if !out.Delivered {
			if w.r.cfg.Confirm == ConfirmRestart {
				return netsim.StatusNone, 0, nil
			}
			return netsim.StatusNone, 0, fmt.Errorf("route: message dropped at %d", out.Final)
		}
		return out.Header.Status, out.Header.Index, nil
	}
	if err := w.flat.Err(); err != nil {
		return netsim.StatusNone, 0, fmt.Errorf("route: flat walk: %w", err)
	}
	if w.flat.Success() {
		return netsim.StatusSuccess, w.flat.Outcome().DeliveredIndex, nil
	}
	return netsim.StatusFailure, w.flat.Outcome().DeliveredIndex, nil
}

// endRound folds the terminated live round into the walk and decides what
// follows: a verdict, or — after an undecided round — the next round.
func (w *Walker) endRound() {
	status, index, err := w.roundOutcome()
	hops := w.closeRound(status)
	switch {
	case err != nil:
		if w.prov != nil && (errors.Is(err, flatgraph.ErrUnwound) || errors.Is(err, netsim.ErrHopBudget)) {
			// Churn redirected the confirmation until it lost its way
			// back to the source: no verdict, retry the round.
			w.rsp.Event(w.ns+".round_abort", trace.String("reason", "confirmation_unwound"))
			w.cur.AbortedRounds++
			w.nextRound()
			return
		}
		w.fail(err)
	case status == netsim.StatusSuccess:
		// Forward steps f and back steps b satisfy f + b = hops and
		// b = f - indexAtDelivery. A restart confirmation instead took
		// index-1 steps after the turnaround reset the index to 1.
		w.res.ForwardSteps = (hops + index) / 2
		if w.ref != nil && w.r.cfg.Confirm == ConfirmRestart {
			w.res.ForwardSteps = hops - (index - 1)
		}
		w.res.Status, w.done = status, true
	case status == netsim.StatusFailure:
		// A promised bound (§3's first part) makes the failure definitive;
		// otherwise the §4 closure check decides whether T_bound covered
		// the source component.
		if w.prov == nil && w.r.cfg.KnownN > 0 {
			w.res.Status, w.done = status, true
			return
		}
		closed, walked, err := w.closed()
		if err != nil {
			w.fail(err)
			return
		}
		w.res.Rounds[len(w.res.Rounds)-1].Covered = closed
		if w.sp.Recording() {
			_, name := walkNames(w.ns)
			bound, covered := trace.Int("bound", int64(w.cur.Bound)), trace.Bool("covered", closed)
			if walked {
				w.sp.Event(name, bound, covered)
			} else {
				w.sp.Event(name, bound, covered, trace.Bool("walked", false))
			}
		}
		if closed {
			w.res.Status, w.done = status, true
			return
		}
		w.nextRound()
	default:
		w.nextRound() // an inconclusive restart confirmation
	}
}

// closed runs the §4 closure check of the failed round at the current
// bound, on the topology current now, and keeps its cover. The failure is
// definitive only if the closed cover — the source's whole component —
// does not hold t: an evolving topology may have joined the two since the
// round walked. On a static router whose component index puts s and t in
// one component the answer is "not closed" without a walk (walked false).
func (w *Walker) closed() (closed, walked bool, err error) {
	r := w.r
	if w.prov != nil {
		if r, _, err = w.prov.Snapshot(); err != nil {
			return false, false, err
		}
	} else if r.sameComponent(w.cur.Src, w.cur.Dst) {
		return false, false, nil
	}
	c, err := r.Cover(w.cur.Src, w.cur.Bound, false)
	if err != nil {
		return false, false, err
	}
	w.cover = c
	closed, _, err = c.Closed()
	return closed && !c.holds(w.cur.Dst), true, err
}

// nextRound follows a round that reached no verdict with a fresh one,
// unless the schedule is spent: a static walk stops at the bound cap (or
// after its single promised-bound round), an evolving one when its
// provider says so.
func (w *Walker) nextRound() {
	var err error
	if w.prov != nil {
		err = w.prov.Retry(w)
	} else if w.r.cfg.KnownN > 0 || w.cur.Bound >= w.r.maxBound() {
		err = fmt.Errorf("%w: bound %d", ErrSequenceExhausted, w.cur.Bound)
	}
	if err == nil {
		err = w.startRound()
	}
	if err != nil {
		w.fail(err)
	}
}

// exhaust stops the walk without a verdict and mints the cursor that
// re-enters the live round at this exact position. Bounded walks run flat,
// so the live round is the flat stepper. Hops and RoundHops stay split so
// the continued round's total folds in without double counting.
func (w *Walker) exhaust(reason ExhaustReason) {
	c := w.cur
	out := w.flat.Outcome()
	node, inPort := w.flat.Position()
	c.Node, c.InPort, c.At = node, inPort, w.r.flat.OriginalOf(node)
	c.Index, c.Backward, c.Success = w.flat.Index(), w.flat.Backward(), w.flat.Success()
	c.RoundHops += out.Hops
	c.MaxIndex = max(c.MaxIndex, out.MaxIndex, c.Index)
	c.MaxHeaderBits = max(c.MaxHeaderBits, headerBits(c.Src, c.Dst, c.MaxIndex))
	c.PeakMemoryBits = max(c.PeakMemoryBits, out.PeakMemoryBits)
	w.res.Cursor, w.res.Exhausted, w.res.Bound = &c, reason, c.Bound
	w.res.Hops, w.res.MaxHeaderBits, w.res.PeakMemoryBits = c.Hops+c.RoundHops, c.MaxHeaderBits, c.PeakMemoryBits
	if w.rsp.Recording() {
		w.rsp.SetAttr(trace.Int("computed_hops", 0))
		w.rsp.Event(w.ns+".exhausted", trace.String("reason", string(reason)),
			trace.Int("round_hops", c.RoundHops), trace.Int("index", c.Index))
		w.endSpan()
	}
	w.done = true
}

// fail ends the walk with err.
func (w *Walker) fail(err error) {
	w.err, w.done = err, true
	w.endSpan()
}
