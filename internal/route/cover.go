package route

import (
	"fmt"
	"slices"

	"repro/internal/graph"
	"repro/internal/ues"
)

// Cover is the local walk of T_bound from a source's entry gadget — the
// forward walk of a round simulated at the source, with no metering and no
// messages — and the set of work-graph nodes it visited. Its closure check
// is §4's: a visited set closed under neighbourhood is the source's whole
// component, which makes a failed round's verdict definitive, ends a
// broadcast, and makes CountNodes exact. The walk driver runs the check
// after a failed round unless the component index already decides it;
// package count runs its ModeLocal rounds on it.
type Cover struct {
	r *Router
	// The flat path: dense flags over the snapshot, and the dense
	// first-visit order when the cover was asked to keep it.
	visited []bool
	order   []int32
	// The reference path: the visited set and its first-visit order.
	seen map[graph.NodeID]bool
	ids  []graph.NodeID
}

// Cover walks T_bound from s's entry gadget to the sequence's end: on the
// flat snapshot when the router's rounds run flat, otherwise on the work
// graph (DisableFlat, the no-reduction ablation, a factory sequence, or a
// configuration that needs the reference engine). ordered keeps the flat
// walk's first-visit order, which Closed needs to count probes; the
// reference walk always keeps it.
func (r *Router) Cover(s graph.NodeID, bound int, ordered bool) (*Cover, error) {
	start, err := r.entry(s)
	if err != nil {
		return nil, err
	}
	c := &Cover{r: r}
	if fs, ok := r.flatSeq(bound); ok {
		si, ok := r.flat.Index(start)
		if !ok {
			return nil, fmt.Errorf("route: cover check: %w: %d", graph.ErrNodeNotFound, start)
		}
		c.visited = make([]bool, r.flat.NumNodes())
		if ordered {
			c.order = make([]int32, 0, r.flat.NumNodes())
		}
		if c.order, err = r.flat.CoverWalk(si, fs, c.visited, c.order); err != nil {
			return nil, fmt.Errorf("route: cover check: %w", err)
		}
		return c, nil
	}
	seq, work := r.Sequence(bound), r.WorkGraph()
	c.seen, c.ids = map[graph.NodeID]bool{start: true}, []graph.NodeID{start}
	pos := ues.Start(start)
	for i := 1; i <= seq.Len(); i++ {
		if pos, err = ues.Step(work, pos, seq.At(i)); err != nil {
			return nil, fmt.Errorf("route: cover check: %w", err)
		}
		if !c.seen[pos.Node] {
			c.seen[pos.Node] = true
			c.ids = append(c.ids, pos.Node)
		}
	}
	return c, nil
}

// Closed is the §4 closure check: it reports whether every neighbour of a
// visited node was visited. probes counts the neighbour slots it read, in
// first-visit order up to the first miss — CountNodes' Retrieve count. An
// unordered flat cover scans its dense set instead and reports no probes.
func (c *Cover) Closed() (closed bool, probes int64, err error) {
	if c.visited != nil {
		f := c.r.flat
		if c.order == nil {
			return f.Closed(c.visited), 0, nil
		}
		for _, v := range c.order {
			for j := int32(0); j < 3; j++ {
				probes++
				if !c.visited[f.Half(v, j).To] {
					return false, probes, nil
				}
			}
		}
		return true, probes, nil
	}
	work := c.r.WorkGraph()
	for _, u := range c.ids {
		for p := 0; p < work.Degree(u); p++ {
			probes++
			h, err := work.Neighbor(u, p)
			if err != nil {
				return false, probes, err
			}
			if !c.seen[h.To] {
				return false, probes, nil
			}
		}
	}
	return true, probes, nil
}

// holds reports whether the walk visited t's entry gadget. On a closed
// cover that decides whether t is in the source's component: the cover is
// the whole component, and every gadget node of t shares the component of
// t's entry.
func (c *Cover) holds(t graph.NodeID) bool {
	te, err := c.r.entry(t)
	if err != nil {
		return false
	}
	if c.visited == nil {
		return c.seen[te]
	}
	ti, ok := c.r.flat.Index(te)
	return ok && c.visited[ti]
}

// Size returns the number of work-graph nodes the walk visited.
func (c *Cover) Size() int {
	if c.visited == nil {
		return len(c.ids)
	}
	n := 0
	for _, ok := range c.visited {
		if ok {
			n++
		}
	}
	return n
}

// Originals returns the original nodes the visited work-graph nodes
// simulate, in increasing order.
func (c *Cover) Originals() []graph.NodeID {
	out := make([]graph.NodeID, 0, len(c.visited)+len(c.ids))
	for i, ok := range c.visited {
		if ok {
			out = append(out, c.r.flat.OriginalOf(int32(i)))
		}
	}
	for _, u := range c.ids {
		out = append(out, c.r.original(u))
	}
	slices.Sort(out)
	return slices.Compact(out)
}
