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
	"cmp"
	"fmt"
	"slices"
	"sync"

	"repro/internal/flatgraph"
	"repro/internal/graph"
)

// Reduced is a 3-regular multigraph G′, held as its flat port-table
// snapshot, together with the bidirectional mapping between gadget nodes
// and the original nodes they simulate.
//
// A generation's arrays hold no pointers: the snapshot's packed table, the
// projection orig (which the snapshot shares) and one gadget entry per
// original. A delta compile produces the next generation by copying them
// and patching only the touched entries, while the original-node universe
// (origIDs/origIdx) is shared immutably across generations — any change
// to the node set forces a full Reduce.
type Reduced struct {
	// orig[g] is the original node simulated by gadget node g. Gadget IDs
	// are always exactly 0..len(orig)-1.
	orig []graph.NodeID
	// entry[i] is the first gadget node of the original at dense index i.
	// The rest of the gadget is read off the table, where wire lays it out
	// as a cycle (see succ).
	entry []int32
	// origIDs/origIdx enumerate the original nodes in insertion order and
	// invert that enumeration. Shared (never mutated) by every generation
	// derived from the same full Reduce.
	origIDs []graph.NodeID
	origIdx map[graph.NodeID]int32

	// flat is G′ itself: the port table every walk runs on.
	flat *flatgraph.Graph

	// g is G′ in mutable-graph form, materialized from flat only when a
	// caller (the reference engine, a local replay) asks for it.
	gOnce sync.Once
	g     *graph.Graph
}

// gadgetSize returns the number of gadget nodes simulating an original node
// of degree d — the Figure 1 shape is a pure local function of degree. It
// is d itself whenever d > 0, so gadget node p owns original port p.
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

// wire writes the intra-gadget edges of an original node of degree d whose
// gadget nodes are s, in cycle order, through set(node, port, far half):
// a cycle on ports 0/1 for d ≥ 3, a parallel pair for d = 2, a self-loop
// 0↔1 for d = 1, and a theta p↔p for d = 0. Every gadget node but a
// theta's keeps port 2 for the original edge it owns. Reduce and ApplyDelta
// both wire through it, so the two compile paths label every gadget alike.
// In every shape, port 0 of s[0] leads to s[1] and port 1 of each later
// node to the next one, back to s[0] from the last: that is how succ reads
// a gadget back off the table.
func wire(s []int32, d int, set func(node, port int32, h flatgraph.Half32)) {
	switch {
	case d >= 3:
		g := func(i int) int32 { return s[i] }
		set(g(0), 0, flatgraph.Half32{To: g(1), Port: 0})
		set(g(0), 1, flatgraph.Half32{To: g(d - 1), Port: 1})
		for i := 1; i <= d-2; i++ {
			backPort := int32(1)
			if i == 1 {
				backPort = 0
			}
			set(g(i), 0, flatgraph.Half32{To: g(i - 1), Port: backPort})
			set(g(i), 1, flatgraph.Half32{To: g(i + 1), Port: 0})
		}
		set(g(d-1), 0, flatgraph.Half32{To: g(d - 2), Port: 1})
		set(g(d-1), 1, flatgraph.Half32{To: g(0), Port: 1})
	case d == 2:
		a, b := s[0], s[1]
		set(a, 0, flatgraph.Half32{To: b, Port: 0})
		set(a, 1, flatgraph.Half32{To: b, Port: 1})
		set(b, 0, flatgraph.Half32{To: a, Port: 0})
		set(b, 1, flatgraph.Half32{To: a, Port: 1})
	case d == 1:
		a := s[0]
		set(a, 0, flatgraph.Half32{To: a, Port: 1})
		set(a, 1, flatgraph.Half32{To: a, Port: 0})
	default: // d == 0: theta
		a, b := s[0], s[1]
		for p := int32(0); p < 3; p++ {
			set(a, p, flatgraph.Half32{To: b, Port: p})
			set(b, p, flatgraph.Half32{To: a, Port: p})
		}
	}
}

// Reduce builds the 3-regular version of g, writing G′ straight into its
// port-table snapshot. The input graph is not modified. Gadget node IDs
// are assigned densely from 0 in the insertion order of the original
// nodes. The table is checked once (flatgraph's CheckConsistent) before
// Reduce returns it, so a construction bug is an error, never a wrong walk.
func Reduce(g *graph.Graph) (*Reduced, error) {
	ids := g.Nodes()
	r := &Reduced{
		entry:   make([]int32, len(ids)),
		origIDs: ids,
		origIdx: make(map[graph.NodeID]int32, len(ids)),
	}
	n := 0
	for i, v := range ids {
		r.origIdx[v] = int32(i)
		n += gadgetSize(g.Degree(v))
	}
	if err := checkSize(n); err != nil {
		return nil, err
	}
	r.orig = make([]graph.NodeID, n)
	halves := make([]uint32, 3*n)
	set := func(node, port int32, h flatgraph.Half32) { halves[node*3+port] = h.Pack() }

	// Gadgets and their intra-gadget edges: each original's gadget is the
	// next run of IDs, so its node p is its entry plus p.
	var s []int32
	next := int32(0)
	for i, v := range ids {
		d := g.Degree(v)
		r.entry[i] = next
		s = s[:0]
		for range gadgetSize(d) {
			s = append(s, next)
			r.orig[next] = v
			next++
		}
		wire(s, d, set)
	}

	// Original edges, at port 2 of the gadget nodes that own their ports.
	// Every original port is visited once, which writes each edge's two
	// directions from its two ends.
	for i, v := range ids {
		for p := range g.Degree(v) {
			h, err := g.Neighbor(v, p)
			if err != nil {
				return nil, fmt.Errorf("degred: edge wiring: %w", err)
			}
			w, ok := r.origIdx[h.To]
			if !ok {
				return nil, fmt.Errorf("degred: edge wiring: port (%d,%d) leads to unknown node %d", v, p, h.To)
			}
			set(r.entry[i]+int32(p), 2, flatgraph.Half32{To: r.entry[w] + int32(h.ToPort), Port: 2})
		}
	}
	r.flat = flatgraph.New(halves, r.orig)
	if err := r.flat.CheckConsistent(); err != nil {
		return nil, fmt.Errorf("degred: %w", err)
	}
	return r, nil
}

// checkSize refuses a G′ of n nodes that a snapshot cannot address.
func checkSize(n int) error {
	if n > flatgraph.MaxNodes {
		return fmt.Errorf("degred: G′ needs %d nodes, more than a snapshot holds (%d)", n, flatgraph.MaxNodes)
	}
	return nil
}

// Graph returns G′ as a graph.Graph, for the reference engine and the
// local replays that walk one; callers must treat it as read-only. It is
// materialized from the snapshot on first use, for full and delta
// reductions alike; nothing on the flat path asks for it.
func (r *Reduced) Graph() *graph.Graph {
	r.gOnce.Do(func() {
		f := r.flat
		n := f.NumNodes()
		order := make([]graph.NodeID, n)
		adj := make(map[graph.NodeID][]graph.Half, n)
		for i := 0; i < n; i++ {
			order[i] = graph.NodeID(i)
			row := make([]graph.Half, 3)
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

// Flat returns the snapshot of G′, including the gadget-to-original
// projection — the shared hot-path artifact every router and counter built
// from this reduction walks. Every reduction is born with it, so one
// reduction serves any number of engines with a single snapshot.
func (r *Reduced) Flat() *flatgraph.Graph { return r.flat }

// Original returns the original node simulated by gadget node v.
func (r *Reduced) Original(v graph.NodeID) (graph.NodeID, bool) {
	if v < 0 || int(v) >= len(r.orig) {
		return 0, false
	}
	return r.orig[v], true
}

// Gadget returns the gadget nodes simulating original node v, in cycle
// order (a fresh slice).
func (r *Reduced) Gadget(v graph.NodeID) []graph.NodeID {
	ix, ok := r.origIdx[v]
	if !ok {
		return nil
	}
	var out []graph.NodeID
	e := r.entry[ix]
	for g, j := e, 0; ; j++ {
		out = append(out, graph.NodeID(g))
		if g = r.succ(g, j); g == e {
			return out
		}
	}
}

// succ returns the gadget node after g, node j of its gadget, in cycle
// order: wire leaves a gadget's entry through port 0 and every later node
// through port 1, and the last node's port 1 leads back to the entry.
func (r *Reduced) succ(g int32, j int) int32 {
	return r.flat.Half(g, min(int32(j), 1)).To
}

// farEnds returns, in buf's storage, the nodes across the port-2 halves
// of the gadget that starts at entry e, the far ends of its original's
// edges, sorted by the original each simulates.
func (r *Reduced) farEnds(buf []int32, e int32) []int32 {
	buf = buf[:0]
	for g, j := e, 0; ; j++ {
		buf = append(buf, r.flat.Half(g, 2).To)
		if g = r.succ(g, j); g == e {
			break
		}
	}
	slices.SortFunc(buf, func(a, b int32) int { return cmp.Compare(r.orig[a], r.orig[b]) })
	return buf
}

// Entry returns the canonical gadget node for original node v — the place
// where a message originating at v enters the reduced graph.
func (r *Reduced) Entry(v graph.NodeID) (graph.NodeID, bool) {
	ix, ok := r.origIdx[v]
	if !ok {
		return 0, false
	}
	return graph.NodeID(r.entry[ix]), true
}
