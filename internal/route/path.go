package route

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/netsim"
	"repro/internal/ues"
)

// PathOf reconstructs the sequence of original nodes the successful forward
// walk visited, by replaying the exploration locally: the walk from s's
// entry gadget under T_bound for forwardSteps steps, projected to original
// node IDs with consecutive duplicates (gadget-internal moves) collapsed.
//
// Use it with a successful Result: PathOf(s, res.Bound, res.ForwardSteps).
// The path starts at s and ends at t; it may revisit nodes (exploration
// walks are not simple paths).
func (r *Router) PathOf(s graph.NodeID, bound int, forwardSteps int64) ([]graph.NodeID, error) {
	start, err := r.entry(s)
	if err != nil {
		return nil, err
	}
	seq := r.sequence(bound)
	if forwardSteps < 0 || forwardSteps > int64(seq.Len()) {
		return nil, fmt.Errorf("route: forward steps %d outside [0, %d]", forwardSteps, seq.Len())
	}
	originalOf := r.originalOf()
	path := []graph.NodeID{originalOf(start)}
	pos := ues.Start(start)
	for i := int64(1); i <= forwardSteps; i++ {
		next, err := ues.Step(r.WorkGraph(), pos, seq.At(int(i)))
		if err != nil {
			return nil, fmt.Errorf("route: path replay: %w", err)
		}
		pos = next
		if o := originalOf(pos.Node); o != path[len(path)-1] {
			path = append(path, o)
		}
	}
	return path, nil
}

// RouteWithPath routes s→t and, on success, attaches the reconstructed
// forward path.
func (r *Router) RouteWithPath(s, t graph.NodeID) (*Result, []graph.NodeID, error) {
	res, err := r.Route(s, t)
	if err != nil {
		return res, nil, err
	}
	if res.Status != netsim.StatusSuccess {
		return res, nil, nil
	}
	if s == t {
		return res, []graph.NodeID{s}, nil
	}
	path, err := r.PathOf(s, res.Bound, res.ForwardSteps)
	if err != nil {
		return res, nil, err
	}
	return res, path, nil
}
