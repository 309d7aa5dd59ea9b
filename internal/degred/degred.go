// Package degred implements the degree reduction of Figure 1 (paper §3):
// converting an arbitrary port-labeled multigraph G into a 3-regular
// multigraph G′ in which every original node v is "simulated" by a small
// gadget of degree-3 nodes, at most roughly squaring the size of the graph.
//
// Construction (following Koucky 2003, p. 80, as cited by the paper):
//
//   - deg(v) ≥ 3: v becomes a cycle of deg(v) gadget nodes; gadget node i
//     carries the original edge at port i of v (2 cycle edges + 1 original
//     edge = degree 3).
//   - deg(v) = 2: v becomes two gadget nodes joined by a pair of parallel
//     edges; each carries one original edge.
//   - deg(v) = 1: v becomes a single gadget node with a self-loop plus the
//     original edge.
//   - deg(v) = 0: v becomes a "theta" gadget — two nodes joined by three
//     parallel edges (3-regular, no original edges).
//
// Original edges are wired between the gadget nodes that own the
// corresponding ports, so the reduction is purely local: a real node could
// simulate its own gadget with O(log n) state, which is what the paper's
// model requires. That locality is also what makes the reduction
// incrementally maintainable — see ApplyDelta, which re-gadgets only the
// nodes whose degree a batch of edge mutations touched.
package degred

import (
	"fmt"
	"sync"

	"repro/internal/flatgraph"
	"repro/internal/graph"
)

// Reduced is a 3-regular multigraph G′ together with the bidirectional
// mapping between gadget nodes and the original nodes they simulate.
//
// Internally the mapping is array-based, indexed by dense gadget ID and
// dense original index: delta compiles produce a new generation by copying
// the spines and patching only the touched entries, while the original-node
// universe (origIDs/origIdx) is shared immutably across generations — any
// change to the node set forces a full Reduce.
type Reduced struct {
	// orig[g] is the original node simulated by gadget node g; origIx[g] is
	// the dense index of that original. Gadget IDs are always exactly
	// 0..len(orig)-1.
	orig   []graph.NodeID
	origIx []int32
	// slots[i] lists, in cycle order, the gadget nodes simulating the
	// original at dense index i; slot j owns original ports p with
	// p % len(slots[i]) == j.
	slots [][]graph.NodeID
	// origIDs/origIdx enumerate the original nodes in insertion order and
	// invert that enumeration. Shared (never mutated) by every generation
	// derived from the same full Reduce.
	origIDs []graph.NodeID
	origIdx map[graph.NodeID]int32

	// g is the reduced multigraph in mutable-graph form. A full Reduce
	// builds it as a construction byproduct; a delta generation only
	// materializes it from the CSR snapshot if a caller (the reference
	// engine) actually asks.
	gOnce sync.Once
	g     *graph.Graph

	flatOnce sync.Once
	flat     *flatgraph.Graph
}

// gadgetSize returns the number of gadget nodes simulating an original node
// of degree d — the Figure 1 shape is a pure local function of degree.
func gadgetSize(d int) int {
	switch {
	case d >= 3:
		return d
	case d == 2:
		return 2
	case d == 1:
		return 1
	default: // d == 0: theta gadget
		return 2
	}
}

// Reduce builds the 3-regular version of g. The input graph is not
// modified. Gadget node IDs are assigned densely from 0 in the insertion
// order of the original nodes.
func Reduce(g *graph.Graph) (*Reduced, error) {
	numOrig := g.NumNodes()
	r := &Reduced{
		g:       graph.New(),
		slots:   make([][]graph.NodeID, numOrig),
		origIDs: g.Nodes(),
		origIdx: make(map[graph.NodeID]int32, numOrig),
	}
	for i, id := range r.origIDs {
		r.origIdx[id] = int32(i)
	}
	fresh := func(ownerIx int32) graph.NodeID {
		id := graph.NodeID(len(r.orig))
		r.g.EnsureNode(id)
		r.orig = append(r.orig, r.origIDs[ownerIx])
		r.origIx = append(r.origIx, ownerIx)
		r.slots[ownerIx] = append(r.slots[ownerIx], id)
		return id
	}

	// Phase 1: gadgets and intra-gadget edges.
	var buildErr error
	g.ForEachNode(func(v graph.NodeID) {
		if buildErr != nil {
			return
		}
		ix := r.origIdx[v]
		d := g.Degree(v)
		switch {
		case d >= 3:
			first := fresh(ix)
			prev := first
			for i := 1; i < d; i++ {
				cur := fresh(ix)
				if _, _, err := r.g.AddEdge(prev, cur); err != nil {
					buildErr = err
					return
				}
				prev = cur
			}
			if _, _, err := r.g.AddEdge(prev, first); err != nil {
				buildErr = err
			}
		case d == 2:
			a, b := fresh(ix), fresh(ix)
			for i := 0; i < 2; i++ {
				if _, _, err := r.g.AddEdge(a, b); err != nil {
					buildErr = err
					return
				}
			}
		case d == 1:
			a := fresh(ix)
			if _, _, err := r.g.AddEdge(a, a); err != nil {
				buildErr = err
			}
		default: // d == 0
			a, b := fresh(ix), fresh(ix)
			for i := 0; i < 3; i++ {
				if _, _, err := r.g.AddEdge(a, b); err != nil {
					buildErr = err
					return
				}
			}
		}
	})
	if buildErr != nil {
		return nil, fmt.Errorf("degred: gadget construction: %w", buildErr)
	}

	// Phase 2: original edges between port-owning gadget nodes. Each edge
	// is added once, from the canonical endpoint.
	g.ForEachNode(func(v graph.NodeID) {
		if buildErr != nil {
			return
		}
		for p := 0; p < g.Degree(v); p++ {
			h, err := g.Neighbor(v, p)
			if err != nil {
				buildErr = err
				return
			}
			if h.To < v || (h.To == v && h.ToPort < p) {
				continue // already added from the other side
			}
			from := r.portOwner(v, p)
			to := r.portOwner(h.To, h.ToPort)
			if _, _, err := r.g.AddEdge(from, to); err != nil {
				buildErr = err
				return
			}
		}
	})
	if buildErr != nil {
		return nil, fmt.Errorf("degred: edge wiring: %w", buildErr)
	}
	if err := r.g.Validate(); err != nil {
		return nil, fmt.Errorf("degred: %w", err)
	}
	if !r.g.IsRegular(3) {
		return nil, fmt.Errorf("degred: result is not 3-regular (max degree %d)", r.g.MaxDegree())
	}
	return r, nil
}

// Graph returns the reduced 3-regular multigraph. Callers must treat it as
// read-only. For a delta-compiled Reduced the graph is materialized from
// the CSR snapshot on first use; full reductions have it from construction.
func (r *Reduced) Graph() *graph.Graph {
	r.gOnce.Do(func() {
		if r.g != nil {
			return
		}
		f := r.flat
		if f == nil {
			return
		}
		n := f.NumNodes()
		order := make([]graph.NodeID, n)
		adj := make(map[graph.NodeID][]graph.Half, n)
		for i := 0; i < n; i++ {
			order[i] = graph.NodeID(i)
			row := make([]graph.Half, f.Degree(int32(i)))
			for p := range row {
				h := f.Half(int32(i), int32(p))
				row[p] = graph.Half{To: graph.NodeID(h.To), ToPort: int(h.Port)}
			}
			adj[graph.NodeID(i)] = row
		}
		if g, err := graph.NewFromAdjacency(order, adj); err == nil {
			r.g = g
		}
	})
	return r.g
}

// Flat returns the compiled CSR snapshot of the reduced graph, including
// the gadget-to-original projection — the shared hot-path artifact every
// router and counter built from this reduction walks. It is built on first
// use and memoized, so one reduction serves any number of engines with a
// single snapshot; delta-compiled reductions are born with it. Flat returns
// nil only if compilation fails, which a validated reduction cannot
// provoke; callers treat nil as "use the reference engine".
func (r *Reduced) Flat() *flatgraph.Graph {
	r.flatOnce.Do(func() {
		if r.flat != nil {
			return
		}
		fg, err := flatgraph.Compile(r.g, func(v graph.NodeID) graph.NodeID {
			if int(v) < len(r.orig) {
				return r.orig[v]
			}
			return v
		})
		if err == nil {
			r.flat = fg
		}
	})
	return r.flat
}

// Original returns the original node simulated by gadget node v.
func (r *Reduced) Original(v graph.NodeID) (graph.NodeID, bool) {
	if v < 0 || int(v) >= len(r.orig) {
		return 0, false
	}
	return r.orig[v], true
}

// Gadget returns the gadget nodes simulating original node v, in cycle
// order (a copy).
func (r *Reduced) Gadget(v graph.NodeID) []graph.NodeID {
	ix, ok := r.origIdx[v]
	if !ok {
		return nil
	}
	s := r.slots[ix]
	out := make([]graph.NodeID, len(s))
	copy(out, s)
	return out
}

// Entry returns the canonical gadget node for original node v — the place
// where a message originating at v enters the reduced graph.
func (r *Reduced) Entry(v graph.NodeID) (graph.NodeID, bool) {
	ix, ok := r.origIdx[v]
	if !ok || len(r.slots[ix]) == 0 {
		return 0, false
	}
	return r.slots[ix][0], true
}

// SameOriginal reports whether gadget node v simulates original node o.
func (r *Reduced) SameOriginal(v, o graph.NodeID) bool {
	got, ok := r.Original(v)
	return ok && got == o
}

// portOwner returns the gadget node owning the original port p of original
// node v. Degree ≥ 3 gadgets own port i at slot i; degree-2 gadgets own one
// port per slot; the degree-1 gadget owns its single port.
func (r *Reduced) portOwner(v graph.NodeID, p int) graph.NodeID {
	s := r.slots[r.origIdx[v]]
	return s[p%len(s)]
}
