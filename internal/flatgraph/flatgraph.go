package flatgraph

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/graph"
	"repro/internal/ues"
)

// Half32 is a compact half-edge: the dense index of the far node and the
// port (local label) under which the same edge is known there.
type Half32 struct {
	To   int32
	Port int32
}

// Graph is an immutable CSR snapshot of a port-labeled multigraph together
// with the projection back to the original nodes each snapshot node
// simulates. All fields are read-only after Compile, so one Graph is safely
// shared by any number of concurrent walkers.
type Graph struct {
	// rowStart[i] is the offset of node i's ports in halves; node i has
	// degree rowStart[i+1]-rowStart[i].
	rowStart []int32
	// halves is the flat port table: halves[rowStart[i]+p] is the half-edge
	// leaving node i through port p.
	halves []Half32
	// ids maps dense index -> NodeID in the snapshotted graph.
	ids []graph.NodeID
	// orig maps dense index -> the original node it simulates (the gadget
	// projection of degred; identity when the graph is not a reduction).
	orig []graph.NodeID
	// idx is the reverse map NodeID -> dense index. It is nil when identIDs
	// holds — the common case for degree-reduced graphs, whose gadget node
	// IDs are assigned densely from 0, so index == ID and the map (the one
	// O(n)-allocation-heavy part of a snapshot build) is never needed.
	idx map[graph.NodeID]int32
	// identIDs records that ids[i] == i for every node, making Index a
	// bounds check instead of a map lookup.
	identIDs bool
	// memw caches, per node, the metering width of its two identity
	// registers (wordBits(ids[i]) + wordBits(orig[i])) so the walkers'
	// memory-metering replica costs one byte load per hop instead of two
	// Len64 computations.
	memw []uint8
	// regular3 records that every node has degree exactly 3, which the walk
	// loops rely on for stride addressing and branchless mod-3 steps.
	regular3 bool
	// compOnce/comps memoize the connected-component index (see
	// components.go); computed lazily on first Components call, like the
	// Flat memoization one layer up.
	compOnce sync.Once
	comps    *Components
}

// ErrNilGraph is returned by Compile when given a nil graph.
var ErrNilGraph = errors.New("flatgraph: nil graph")

// Compile snapshots g into CSR form. originalOf projects each node to the
// original node it simulates (pass nil for identity). The graph is fully
// validated here — mutual half-edges, ports in range — so the walk loops
// can drop all per-hop checks. g must not be mutated afterwards.
func Compile(g *graph.Graph, originalOf func(graph.NodeID) graph.NodeID) (*Graph, error) {
	if g == nil {
		return nil, ErrNilGraph
	}
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("flatgraph: %w", err)
	}
	n := g.NumNodes()
	f := &Graph{
		rowStart: make([]int32, n+1),
		ids:      g.Nodes(),
		orig:     make([]graph.NodeID, n),
		regular3: true,
		identIDs: true,
	}
	for i, id := range f.ids {
		if id != graph.NodeID(i) {
			f.identIDs = false
			break
		}
	}
	if !f.identIDs {
		f.idx = make(map[graph.NodeID]int32, n)
	}
	f.memw = make([]uint8, n)
	for i, id := range f.ids {
		if f.idx != nil {
			f.idx[id] = int32(i)
		}
		if originalOf != nil {
			f.orig[i] = originalOf(id)
		} else {
			f.orig[i] = id
		}
		f.memw[i] = uint8(wordBits(int64(id)) + wordBits(int64(f.orig[i])))
	}
	total := int32(0)
	for i, id := range f.ids {
		f.rowStart[i] = total
		d := g.Degree(id)
		if d != 3 {
			f.regular3 = false
		}
		total += int32(d)
	}
	f.rowStart[n] = total
	f.halves = make([]Half32, total)
	for i, id := range f.ids {
		for p := 0; p < g.Degree(id); p++ {
			h, err := g.Neighbor(id, p)
			if err != nil {
				return nil, fmt.Errorf("flatgraph: %w", err)
			}
			to, ok := f.Index(h.To)
			if !ok {
				return nil, fmt.Errorf("flatgraph: half-edge (%d,%d) targets unknown node %d", id, p, h.To)
			}
			f.halves[f.rowStart[i]+int32(p)] = Half32{To: to, Port: int32(h.ToPort)}
		}
	}
	return f, nil
}

// NumNodes returns the number of snapshot nodes.
func (f *Graph) NumNodes() int { return len(f.ids) }

// Regular3 reports whether every node has degree exactly 3 (true for any
// Figure 1 reduction); the walk loops require it.
func (f *Graph) Regular3() bool { return f.regular3 }

// Index returns the dense index of id and whether it is a snapshot node.
func (f *Graph) Index(id graph.NodeID) (int32, bool) {
	if f.identIDs {
		if id < 0 || id >= graph.NodeID(len(f.ids)) {
			return 0, false
		}
		return int32(id), true
	}
	i, ok := f.idx[id]
	return i, ok
}

// ID returns the NodeID at dense index i.
func (f *Graph) ID(i int32) graph.NodeID { return f.ids[i] }

// OriginalOf returns the original node simulated by dense node i.
func (f *Graph) OriginalOf(i int32) graph.NodeID { return f.orig[i] }

// Degree returns the degree of dense node i.
func (f *Graph) Degree(i int32) int32 { return f.rowStart[i+1] - f.rowStart[i] }

// Half returns the half-edge leaving dense node i through port p.
func (f *Graph) Half(i, p int32) Half32 { return f.halves[f.rowStart[i]+p] }

// Step performs one exploration hop from (node, inPort) with direction t:
// leave through port (inPort + t) mod deg and return the far half-edge as
// the next position. t must lie in [0, deg) — true for base-3 sequences on
// the 3-regular reduced graph, where this is the whole per-hop work of the
// paper's walk rule.
func (f *Graph) Step(node, inPort, t int32) (int32, int32) {
	exit := inPort + t
	if f.regular3 {
		if exit >= 3 {
			exit -= 3
		}
		h := f.halves[node*3+exit]
		return h.To, h.Port
	}
	row := f.rowStart[node]
	deg := f.rowStart[node+1] - row
	if exit >= deg {
		exit -= deg
	}
	h := f.halves[row+exit]
	return h.To, h.Port
}

// Closed reports whether the visited set (dense indices with visited[i]
// true) is closed under neighbourhood — the §4 check deciding that a walk
// covered its whole component. visited must have length NumNodes.
func (f *Graph) Closed(visited []bool) bool {
	for i := range visited {
		if !visited[i] {
			continue
		}
		for o := f.rowStart[i]; o < f.rowStart[i+1]; o++ {
			if !visited[f.halves[o].To] {
				return false
			}
		}
	}
	return true
}

// Seq is a compiled exploration sequence: the i-th direction is
// ues.Symbol(Seed, i, Base), with the length frozen at construction. Being
// a small value type with concrete methods, the symbol derivation inlines
// into the walk loops.
type Seq struct {
	Seed   uint64
	Base   int
	Length int
}

// Fill writes directions from..from+len(buf)-1 into buf — the per-walk
// block prefetch that amortizes the sequence oracle across hops.
func (s Seq) Fill(buf []int8, from int64) {
	for k := range buf {
		buf[k] = int8(ues.Symbol(s.Seed, uint64(from+int64(k)), s.Base))
	}
}
