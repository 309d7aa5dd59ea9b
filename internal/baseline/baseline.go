package baseline

import (
	"fmt"
	"math"

	"repro/internal/gen"
	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/prng"
)

// WalkResult reports a random-walk routing attempt.
type WalkResult struct {
	// Delivered is true if the walk hit the target within the TTL.
	Delivered bool
	// Hops is the number of steps taken (= TTL when not delivered).
	Hops int64
}

// RandomWalkRoute routes from s to t by uniform random neighbour choice,
// stopping at t or after maxHops steps. This is the §1.2 strawman: without
// the TTL it would never terminate when t is unreachable.
func RandomWalkRoute(g *graph.Graph, s, t graph.NodeID, seed uint64, maxHops int64) (*WalkResult, error) {
	if !g.HasNode(s) {
		return nil, fmt.Errorf("baseline: %w: %d", graph.ErrNodeNotFound, s)
	}
	if s == t {
		return &WalkResult{Delivered: true}, nil
	}
	src := prng.New(seed)
	cur := s
	for hops := int64(1); hops <= maxHops; hops++ {
		deg := g.Degree(cur)
		if deg == 0 {
			return &WalkResult{Hops: hops - 1}, nil
		}
		h, err := g.Neighbor(cur, src.Intn(deg))
		if err != nil {
			return nil, err
		}
		cur = h.To
		if cur == t {
			return &WalkResult{Delivered: true, Hops: hops}, nil
		}
	}
	return &WalkResult{Hops: maxHops}, nil
}

// RandomWalkCover returns the number of steps a uniform random walk from
// start needs to visit every node of start's component, or ok=false if
// maxSteps did not suffice. Used by experiment E4 against the UES cover
// time, including on the lollipop worst case.
func RandomWalkCover(g *graph.Graph, start graph.NodeID, seed uint64, maxSteps int64) (steps int64, ok bool, err error) {
	comp := g.ComponentOf(start)
	if comp == nil {
		return 0, false, fmt.Errorf("baseline: %w: %d", graph.ErrNodeNotFound, start)
	}
	remaining := make(map[graph.NodeID]bool, len(comp))
	for _, v := range comp {
		remaining[v] = true
	}
	delete(remaining, start)
	if len(remaining) == 0 {
		return 0, true, nil
	}
	src := prng.New(seed)
	cur := start
	for s := int64(1); s <= maxSteps; s++ {
		deg := g.Degree(cur)
		if deg == 0 {
			return s - 1, false, nil
		}
		h, err := g.Neighbor(cur, src.Intn(deg))
		if err != nil {
			return s, false, err
		}
		cur = h.To
		if remaining[cur] {
			delete(remaining, cur)
			if len(remaining) == 0 {
				return s, true, nil
			}
		}
	}
	return maxSteps, false, nil
}

// FloodResult reports a flooding broadcast.
type FloodResult struct {
	// Reached is the number of nodes that received the message.
	Reached int
	// Messages is the total number of point-to-point transmissions.
	Messages int64
	// Rounds is the number of synchronous rounds (= eccentricity of s).
	Rounds int
	// PerNodeStateBits is the per-node state flooding requires: a seen bit
	// plus a parent port of ⌈log₂ deg⌉ bits — the state Theorem 1's
	// algorithm does without.
	PerNodeStateBits int
	// ReplyHops is the length of the parent-pointer path from t back to s
	// when flooding is used for routing with confirmation (-1 without a
	// target).
	ReplyHops int
}

// Flood performs a synchronous flooding broadcast from s. If t is a valid
// node, the result also reports the confirmation path length. Flooding is
// the "deposit a token in each node" approach §1.2 mentions: fast and
// reliable but linear in |E| messages and stateful at every node.
func Flood(g *graph.Graph, s graph.NodeID, t graph.NodeID, withTarget bool) (*FloodResult, error) {
	if !g.HasNode(s) {
		return nil, fmt.Errorf("baseline: %w: %d", graph.ErrNodeNotFound, s)
	}
	res := &FloodResult{ReplyHops: -1}
	seen := map[graph.NodeID]bool{s: true}
	dist := map[graph.NodeID]int{s: 0}
	frontier := []graph.NodeID{s}
	maxDeg := 0
	for len(frontier) > 0 {
		var next []graph.NodeID
		for _, v := range frontier {
			if d := g.Degree(v); d > maxDeg {
				maxDeg = d
			}
			for p := 0; p < g.Degree(v); p++ {
				h, err := g.Neighbor(v, p)
				if err != nil {
					return nil, err
				}
				res.Messages++
				if !seen[h.To] {
					seen[h.To] = true
					dist[h.To] = dist[v] + 1
					next = append(next, h.To)
				}
			}
		}
		if len(next) > 0 {
			res.Rounds++
		}
		frontier = next
	}
	res.Reached = len(seen)
	res.PerNodeStateBits = 1 + bitsLen(maxDeg)
	if withTarget {
		if d, ok := dist[t]; ok {
			res.ReplyHops = d
		}
	}
	return res, nil
}

// DFSResult reports a depth-first token routing attempt.
type DFSResult struct {
	// Delivered is true if the token reached t.
	Delivered bool
	// Hops is the number of edge traversals (forward + backtrack).
	Hops int64
	// PerNodeStateBits is the session state each visited node must hold:
	// a visited bit, a parent port, and a next-port cursor — Θ(log deg).
	PerNodeStateBits int
	// NodesWithState counts nodes that had to allocate session state.
	NodesWithState int
}

// DFSRoute routes by a depth-first token: the token explores edges in port
// order, each node remembering its parent port and a cursor over untried
// ports for this session. Delivery is guaranteed in at most 2|E| hops —
// asymptotically optimal — but every visited node must keep per-session
// state, which is exactly the requirement Theorem 1 removes: the UES
// router is slower (poly vs linear) but needs zero memory at intermediate
// nodes and supports unlimited concurrent sessions for free.
func DFSRoute(g *graph.Graph, s, t graph.NodeID, maxHops int64) (*DFSResult, error) {
	if !g.HasNode(s) {
		return nil, fmt.Errorf("baseline: %w: %d", graph.ErrNodeNotFound, s)
	}
	res := &DFSResult{}
	if s == t {
		res.Delivered = true
		return res, nil
	}
	type nodeState struct {
		parentPort int // arrival port at this node (-1 at the root)
		nextPort   int // next untried port
	}
	state := map[graph.NodeID]*nodeState{s: {parentPort: -1}}
	maxDeg := 0
	cur := s
	for {
		if maxHops > 0 && res.Hops >= maxHops {
			break
		}
		st := state[cur]
		if d := g.Degree(cur); d > maxDeg {
			maxDeg = d
		}
		// Skip the parent port and already-visited neighbours.
		advanced := false
		for st.nextPort < g.Degree(cur) {
			p := st.nextPort
			st.nextPort++
			if p == st.parentPort {
				continue
			}
			h, err := g.Neighbor(cur, p)
			if err != nil {
				return nil, err
			}
			if _, seen := state[h.To]; seen {
				continue
			}
			// Forward the token.
			state[h.To] = &nodeState{parentPort: h.ToPort}
			cur = h.To
			res.Hops++
			advanced = true
			break
		}
		if advanced {
			if cur == t {
				res.Delivered = true
				break
			}
			continue
		}
		// Exhausted: backtrack through the parent port.
		if st.parentPort < 0 {
			break // back at the root with nothing left: t unreachable
		}
		h, err := g.Neighbor(cur, st.parentPort)
		if err != nil {
			return nil, err
		}
		cur = h.To
		res.Hops++
	}
	res.NodesWithState = len(state)
	res.PerNodeStateBits = 1 + 2*bitsLen(maxDeg)
	return res, nil
}

// GeoResult reports a position-based routing attempt.
type GeoResult struct {
	// Delivered is true if the packet reached t.
	Delivered bool
	// Hops is the number of edges traversed.
	Hops int64
	// StuckAt is the local minimum where greedy forwarding gave up
	// (greedy only; -1 otherwise).
	StuckAt graph.NodeID
	// FaceTransitions counts greedy→face mode switches (GFG only).
	FaceTransitions int
}

// GreedyRoute forwards greedily to the neighbour strictly closest to t's
// position, failing at the first local minimum. Works in any dimension —
// and fails at voids in any dimension, which is experiment E2's point.
func GreedyRoute(ng *gen.Geometric, s, t graph.NodeID, maxHops int64) (*GeoResult, error) {
	if !ng.G.HasNode(s) || !ng.G.HasNode(t) {
		return nil, fmt.Errorf("baseline: %w: %d or %d", graph.ErrNodeNotFound, s, t)
	}
	res := &GeoResult{StuckAt: -1}
	cur := s
	tp := ng.Pos[t]
	for cur != t {
		if maxHops > 0 && res.Hops >= maxHops {
			return res, nil
		}
		best := cur
		bestDist := geom.Dist2(ng.Pos[cur], tp)
		for p := 0; p < ng.G.Degree(cur); p++ {
			h, err := ng.G.Neighbor(cur, p)
			if err != nil {
				return nil, err
			}
			if d := geom.Dist2(ng.Pos[h.To], tp); d < bestDist {
				bestDist = d
				best = h.To
			}
		}
		if best == cur {
			res.StuckAt = cur
			return res, nil // local minimum: void with no closer neighbour
		}
		cur = best
		res.Hops++
	}
	res.Delivered = true
	return res, nil
}

// GFGRoute is greedy-face-greedy (GPSR-style) routing on a planar
// geometric graph (use gen.Gabriel first): greedy forwarding until a local
// minimum, then right-hand-rule face traversal until progress resumes.
// Guaranteed on connected planar 2-D instances for the full algorithm; this
// implementation uses the standard simplified perimeter rule (exit face
// mode at the first node closer to t than the entry point), whose measured
// delivery rate on Gabriel graphs is what experiment E1 reports.
func GFGRoute(ng *gen.Geometric, s, t graph.NodeID, maxHops int64) (*GeoResult, error) {
	if !ng.G.HasNode(s) || !ng.G.HasNode(t) {
		return nil, fmt.Errorf("baseline: %w: %d or %d", graph.ErrNodeNotFound, s, t)
	}
	res := &GeoResult{StuckAt: -1}
	tp := ng.Pos[t]
	cur := s
	var (
		faceMode  bool
		stuckDist float64
		faceFrom  graph.NodeID // node we arrived from in face mode
		entryNode graph.NodeID
		entryNext graph.NodeID
	)
	for cur != t {
		if maxHops > 0 && res.Hops >= maxHops {
			return res, nil
		}
		if !faceMode {
			best := cur
			bestDist := geom.Dist2(ng.Pos[cur], tp)
			for p := 0; p < ng.G.Degree(cur); p++ {
				h, err := ng.G.Neighbor(cur, p)
				if err != nil {
					return nil, err
				}
				if d := geom.Dist2(ng.Pos[h.To], tp); d < bestDist {
					bestDist = d
					best = h.To
				}
			}
			if best != cur {
				cur = best
				res.Hops++
				continue
			}
			// Local minimum: enter face mode.
			if ng.G.Degree(cur) == 0 {
				res.StuckAt = cur
				return res, nil
			}
			faceMode = true
			res.FaceTransitions++
			stuckDist = geom.Dist2(ng.Pos[cur], tp)
			next, err := firstFaceEdge(ng, cur, tp)
			if err != nil {
				return nil, err
			}
			entryNode, entryNext = cur, next
			faceFrom = cur
			cur = next
			res.Hops++
			continue
		}
		// Face mode.
		if geom.Dist2(ng.Pos[cur], tp) < stuckDist {
			faceMode = false
			continue
		}
		next := nextFaceNeighbor(ng, cur, faceFrom)
		if cur == entryNode && next == entryNext && res.Hops > 1 {
			// Completed the whole face without progress: undeliverable for
			// this perimeter rule.
			res.StuckAt = cur
			return res, nil
		}
		faceFrom = cur
		cur = next
		res.Hops++
	}
	res.Delivered = true
	return res, nil
}

// firstFaceEdge picks the first face-traversal edge at a stuck node: the
// neighbour that follows the direction toward t in counter-clockwise
// order (right-hand rule entry).
func firstFaceEdge(ng *gen.Geometric, u graph.NodeID, target geom.Point) (graph.NodeID, error) {
	base := math.Atan2(target.Y-ng.Pos[u].Y, target.X-ng.Pos[u].X)
	best := graph.NodeID(-1)
	bestDelta := math.Inf(1)
	for p := 0; p < ng.G.Degree(u); p++ {
		h, err := ng.G.Neighbor(u, p)
		if err != nil {
			return 0, err
		}
		delta := geom.Angle(ng.Pos[u], ng.Pos[h.To]) - base
		for delta <= 0 {
			delta += 2 * math.Pi
		}
		if delta < bestDelta {
			bestDelta = delta
			best = h.To
		}
	}
	return best, nil
}

// nextFaceNeighbor continues the right-hand-rule traversal: the neighbour
// that follows the arrival direction in counter-clockwise order.
func nextFaceNeighbor(ng *gen.Geometric, u, from graph.NodeID) graph.NodeID {
	base := geom.Angle(ng.Pos[u], ng.Pos[from])
	deg := ng.G.Degree(u)
	best := from
	bestDelta := math.Inf(1)
	for p := 0; p < deg; p++ {
		h, err := ng.G.Neighbor(u, p)
		if err != nil {
			continue
		}
		if h.To == from && deg > 1 {
			continue
		}
		delta := geom.Angle(ng.Pos[u], ng.Pos[h.To]) - base
		for delta <= 1e-12 {
			delta += 2 * math.Pi
		}
		if delta < bestDelta {
			bestDelta = delta
			best = h.To
		}
	}
	return best
}

func bitsLen(v int) int {
	n := 0
	for v > 0 {
		n++
		v >>= 1
	}
	return n
}
