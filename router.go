package adhocroute

import (
	"context"

	"repro/internal/count"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/hybrid"
	"repro/internal/route"
)

// Router is a routing engine compiled once for a fixed network snapshot.
//
// The amortization contract: Compile performs all per-network work (the
// Figure 1 degree reduction, port maps, and the exploration sequence
// family) exactly once; every query method afterwards is read-only on that
// compiled state and safe to call from any number of goroutines with zero
// coordination — the serving-side consequence of Theorem 1's stateless
// intermediate nodes. Use a Router whenever more than a handful of queries
// hit the same topology; the one-shot Network methods pay a (cached but
// still re-checked) preparation cost per call.
//
// A Router keeps serving the topology it was compiled for even if the
// Network is mutated afterwards; compile again to pick up changes.
type Router struct {
	eng *engine.Engine
}

// Compile prepares the network for sustained query traffic under the given
// options and returns the shared, concurrency-safe Router.
func (nw *Network) Compile(opts ...Option) (*Router, error) {
	cfg := buildOptions(opts)
	// The engine always needs the reduction (counting runs on it even
	// under the no-reduction ablation), so the cached artifact serves
	// every configuration.
	red, err := nw.reduction()
	if err != nil {
		return nil, err
	}
	eng, err := engine.CompileWithReduced(nw.g, red, cfg.engineConfig())
	if err != nil {
		return nil, err
	}
	return &Router{eng: eng}, nil
}

// Route answers one s→t query; see Network.Route.
func (r *Router) Route(s, t NodeID) (*RouteResult, error) {
	res, err := r.eng.Route(graph.NodeID(s), graph.NodeID(t))
	if err != nil {
		return nil, err
	}
	return publicRouteResult(res), nil
}

// RouteWithPath routes s→t and returns the forward path on success; see
// Network.RouteWithPath.
func (r *Router) RouteWithPath(s, t NodeID) (*RouteResult, []NodeID, error) {
	res, path, err := r.eng.RouteWithPath(graph.NodeID(s), graph.NodeID(t))
	if err != nil {
		return nil, nil, err
	}
	return publicRouteResult(res), publicNodes(path), nil
}

// Broadcast delivers a payload to every node of s's component; see
// Network.Broadcast.
func (r *Router) Broadcast(s NodeID) (*BroadcastResult, error) {
	res, err := r.eng.Broadcast(graph.NodeID(s))
	if err != nil {
		return nil, err
	}
	return publicBroadcastResult(res), nil
}

// CountComponent computes |C_s|; see Network.CountComponent.
func (r *Router) CountComponent(s NodeID) (*CountResult, error) {
	res, err := r.eng.Count(graph.NodeID(s))
	if err != nil {
		return nil, err
	}
	return publicCountResult(res), nil
}

// RouteHybrid races a random walk against the guaranteed router; see
// Network.RouteHybrid.
func (r *Router) RouteHybrid(s, t NodeID) (*HybridResult, error) {
	res, err := r.eng.Hybrid(graph.NodeID(s), graph.NodeID(t), r.eng.Config().Seed^0x5eed)
	if err != nil {
		return nil, err
	}
	return publicHybridResult(res), nil
}

// BatchQuery is one s→t query of a batch.
type BatchQuery struct {
	Src NodeID
	Dst NodeID
}

// BatchRouteResult is the outcome of one batch member. Err reports a
// per-query failure without affecting the other members.
type BatchRouteResult struct {
	BatchQuery
	Result *RouteResult
	Err    error
}

// RouteBatch answers many independent queries concurrently across the
// engine's bounded worker pool (WithWorkers), returning results in input
// order.
func (r *Router) RouteBatch(queries []BatchQuery) []BatchRouteResult {
	pairs := make([]engine.Pair, len(queries))
	for i, q := range queries {
		pairs[i] = engine.Pair{Src: graph.NodeID(q.Src), Dst: graph.NodeID(q.Dst)}
	}
	return publicBatchResults(r.eng.RouteBatch(context.Background(), pairs))
}

// RouteAll routes from s to every target via the batch pool.
func (r *Router) RouteAll(s NodeID, targets []NodeID) []BatchRouteResult {
	ids := make([]graph.NodeID, len(targets))
	for i, t := range targets {
		ids[i] = graph.NodeID(t)
	}
	return publicBatchResults(r.eng.RouteAll(context.Background(), graph.NodeID(s), ids))
}

// RouterStats is a point-in-time snapshot of a Router's serving metrics.
type RouterStats struct {
	// Queries is the total number of completed queries of all kinds;
	// Routes, Broadcasts, Counts, and Hybrids break it down.
	Queries    int64
	Routes     int64
	Broadcasts int64
	Counts     int64
	Hybrids    int64
	// Batches counts RouteBatch/RouteAll invocations.
	Batches int64
	// Errors counts queries that returned an error.
	Errors int64
	// Hops and Rounds are totals across all queries.
	Hops   int64
	Rounds int64
	// PeakHeaderBits is the largest message header any query observed.
	PeakHeaderBits int64
}

// Stats returns the Router's serving metrics so far.
func (r *Router) Stats() RouterStats {
	s := r.eng.Stats()
	return RouterStats{
		Queries:        s.Queries(),
		Routes:         s.Routes,
		Broadcasts:     s.Broadcasts,
		Counts:         s.Counts,
		Hybrids:        s.Hybrids,
		Batches:        s.Batches,
		Errors:         s.Errors,
		Hops:           s.Hops,
		Rounds:         s.Rounds,
		PeakHeaderBits: s.PeakHeaderBits,
	}
}

// The public* functions convert internal results to the facade's types for
// both the one-shot Network methods and the compiled Router.

func publicRouteResult(res *route.Result) *RouteResult {
	return &RouteResult{
		Status:         Status(res.Status),
		Hops:           res.Hops,
		ForwardSteps:   res.ForwardSteps,
		Rounds:         len(res.Rounds),
		Bound:          res.Bound,
		HeaderBits:     res.MaxHeaderBits,
		NodeMemoryBits: res.PeakMemoryBits,
	}
}

// publicNodes converts a node list, keeping nil as nil.
func publicNodes(ids []graph.NodeID) []NodeID {
	if ids == nil {
		return nil
	}
	out := make([]NodeID, len(ids))
	for i, v := range ids {
		out[i] = NodeID(v)
	}
	return out
}

func publicBroadcastResult(res *route.BroadcastResult) *BroadcastResult {
	return &BroadcastResult{
		Reached: res.Reached,
		Nodes:   publicNodes(res.Nodes),
		Hops:    res.Hops,
		Rounds:  len(res.Rounds),
	}
}

func publicCountResult(res *count.Result) *CountResult {
	return &CountResult{
		Count:        res.OriginalCount,
		ReducedCount: res.ReducedCount,
		Rounds:       res.Rounds,
		MessageHops:  res.Hops,
	}
}

func publicHybridResult(res *hybrid.Result) *HybridResult {
	return &HybridResult{
		Status:        Status(res.Status),
		Winner:        res.Winner,
		CombinedSteps: res.CombinedSteps,
	}
}

func publicBatchResults(in []engine.BatchResult) []BatchRouteResult {
	out := make([]BatchRouteResult, len(in))
	for i, br := range in {
		out[i] = BatchRouteResult{
			BatchQuery: BatchQuery{Src: NodeID(br.Src), Dst: NodeID(br.Dst)},
			Err:        br.Err,
		}
		if br.Res != nil {
			out[i].Result = publicRouteResult(br.Res)
		}
	}
	return out
}
