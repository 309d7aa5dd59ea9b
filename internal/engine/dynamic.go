package engine

import (
	"context"

	"repro/internal/dynamic"
	"repro/internal/graph"
	"repro/internal/route"
	"repro/internal/trace"
)

// NewWorld returns a dynamic world seeded with this engine's network and
// its already-compiled degree reduction, evolving under sched. The world
// owns a private clone of the graph, so any number of worlds (one per
// dynamic query, in the serving layer) can evolve independently while the
// engine keeps serving static queries; none of them recompiles anything
// until its topology actually diverges.
func (e *Engine) NewWorld(sched dynamic.Schedule) *dynamic.World {
	return dynamic.NewWorldFromCompiled(e.g, e.red, sched)
}

// RouteDynamic answers one s→t query over the evolving world w, advancing
// the topology every cfg.HopsPerEpoch hops and carrying the stateless
// header across snapshot recompiles. Protocol parameters (sequence family
// seed, length factor, known bound, bound cap) always come from the
// engine so dynamic and static queries speak the same protocol; cfg
// supplies only the dynamics knobs.
func (e *Engine) RouteDynamic(w *dynamic.World, s, t graph.NodeID, cfg dynamic.Config) (*dynamic.Result, error) {
	return e.RouteDynamicBudgeted(context.Background(), w, s, t, 0, nil, cfg)
}

// RouteDynamicBudgeted is RouteDynamic with bounded work: at most maxHops
// message hops (0 = unlimited), ctx's deadline honored at round and epoch
// boundaries, and a resume Cursor minted when either limit strikes so a
// later call — even after the world has advanced or recompiled — picks the
// walk up exactly where it stopped. Provably-unreachable pairs on
// multi-component snapshots are answered in O(1) with a reachability
// Certificate stamped with the world epoch and version it was computed at.
// The span ctx carries (trace.FromContext) records the evolving walk: one
// span per round with the hop tail, plus timed events for epoch advances,
// snapshot resumptions, and aborted rounds.
func (e *Engine) RouteDynamicBudgeted(ctx context.Context, w *dynamic.World, s, t graph.NodeID, maxHops int64, cur *route.Cursor, cfg dynamic.Config) (*dynamic.Result, error) {
	cfg.Seed = e.cfg.Seed
	cfg.LengthFactor = e.cfg.LengthFactor
	cfg.KnownN = e.cfg.KnownBound
	if cfg.MaxBound == 0 {
		cfg.MaxBound = e.cfg.MaxBound
	}
	if e.cfg.DisableCertificates {
		cfg.DisableCertificates = true
	}
	var qsp *trace.Span
	if sp := trace.FromContext(ctx); sp.Recording() {
		qsp = sp.Child("engine.route_dynamic")
		defer qsp.End()
		qsp.SetAttr(trace.Int("src", int64(s)), trace.Int("dst", int64(t)))
		ctx = trace.NewContext(ctx, qsp)
	}
	start := sampleStart(e.m.dynamicRoutes.Add(1))
	if cur != nil {
		e.m.resumedWalks.Add(1)
	}
	res, err := dynamic.NewRouter(w, cfg).RouteBudgeted(ctx, s, t, maxHops, cur)
	e.m.recordDynamic(res, err, start)
	if qsp.Recording() {
		if err != nil {
			qsp.SetAttr(trace.String("error", err.Error()))
		}
		if res != nil {
			qsp.SetAttr(
				trace.String("status", res.Status.String()),
				trace.Int("hops", res.Hops),
				trace.Int("rounds", int64(res.Rounds)),
				trace.Int("aborted_rounds", int64(res.AbortedRounds)),
				trace.Int("epochs", int64(res.Epochs)),
				trace.Int("recompiles", int64(res.Recompiles)),
				trace.Int("resumptions", int64(res.Resumptions)),
				trace.Int("max_header_bits", int64(res.MaxHeaderBits)),
			)
			if res.Certificate != nil {
				qsp.SetAttr(trace.Bool("certificate", true))
			}
			if res.Exhausted != "" {
				qsp.SetAttr(trace.String("exhausted", string(res.Exhausted)))
			}
		}
	}
	return res, err
}
