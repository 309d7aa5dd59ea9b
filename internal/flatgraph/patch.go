package flatgraph

import (
	"errors"
	"fmt"

	"repro/internal/graph"
)

// CSR patching: build a fresh immutable snapshot from an existing one plus
// a sparse set of edits, instead of recompiling from a graph.Graph. The
// mechanical work here is three array copies (the untouched adjacency
// spans ride a memcpy) plus O(edits) overwrites; all gadget-level
// reasoning — which rows change and what they now contain — belongs to
// the caller (degred.ApplyDelta). A patched snapshot computes its
// component index on first use, like a compiled one. The old snapshot is
// never modified: concurrent walkers holding it keep exactly the contract
// they have always had.

// Errors reported by Patch.
var (
	// ErrNotPatchable means the base snapshot does not satisfy the layout
	// the patcher relies on: 3-regular with identity node IDs (dense
	// gadget numbering), which every degree-reduction compile produces.
	ErrNotPatchable = errors.New("flatgraph: snapshot is not patchable (needs 3-regular, identity ids)")
	// ErrBadPatch means the spec is internally inconsistent (out-of-range
	// node, port, or projection array of the wrong length).
	ErrBadPatch = errors.New("flatgraph: bad patch spec")
)

// RowWrite replaces the whole port row of one node (its three half-edges).
type RowWrite struct {
	Node   int32
	Halves [3]Half32
}

// HalfWrite overwrites a single half-edge — the far side of an edge whose
// near side was rewritten, at a node whose other ports are untouched.
type HalfWrite struct {
	Node, Port int32
	H          Half32
}

// PatchSpec describes a fresh snapshot as edits over a base. Rows are
// applied in order, then Halves in order, so later writes win; every row
// beyond the base's node count must be covered by a RowWrite.
type PatchSpec struct {
	// NumNodes is the node count of the patched snapshot; dense ids run
	// 0..NumNodes-1, so growth appends rows and shrinkage truncates.
	NumNodes int
	// Orig is the full gadget→original projection of the patched snapshot
	// (length NumNodes). The patcher takes ownership.
	Orig []graph.NodeID
	// Rows are whole-row rewrites: re-gadgeted nodes, plus nodes relocated
	// into freed ids.
	Rows []RowWrite
	// Halves are single-half fixes at otherwise untouched nodes.
	Halves []HalfWrite
}

// Patch builds a new immutable snapshot from f and the spec. f must be a
// 3-regular identity-ID snapshot (any reduction compile); the result is
// again 3-regular with identity IDs, sharing nothing mutable with f.
func (f *Graph) Patch(spec PatchSpec) (*Graph, error) {
	if !f.regular3 || !f.identIDs {
		return nil, ErrNotPatchable
	}
	n := spec.NumNodes
	if n <= 0 || len(spec.Orig) != n {
		return nil, fmt.Errorf("%w: %d nodes, %d projections", ErrBadPatch, n, len(spec.Orig))
	}
	p := &Graph{
		rowStart: make([]int32, n+1),
		halves:   make([]Half32, n*3),
		ids:      make([]graph.NodeID, n),
		orig:     spec.Orig,
		memw:     make([]uint8, n),
		regular3: true,
		identIDs: true,
	}
	// Untouched adjacency spans: one copy of the shared prefix.
	copy(p.halves, f.halves)
	for _, rw := range spec.Rows {
		if rw.Node < 0 || int(rw.Node) >= n {
			return nil, fmt.Errorf("%w: row write at node %d of %d", ErrBadPatch, rw.Node, n)
		}
		copy(p.halves[rw.Node*3:rw.Node*3+3], rw.Halves[:])
	}
	for _, hw := range spec.Halves {
		if hw.Node < 0 || int(hw.Node) >= n || hw.Port < 0 || hw.Port > 2 {
			return nil, fmt.Errorf("%w: half write at node %d port %d", ErrBadPatch, hw.Node, hw.Port)
		}
		p.halves[hw.Node*3+hw.Port] = hw.H
	}
	for i := 0; i <= n; i++ {
		p.rowStart[i] = int32(i * 3)
	}
	for i := 0; i < n; i++ {
		p.ids[i] = graph.NodeID(i)
		p.memw[i] = uint8(wordBits(int64(i)) + wordBits(int64(p.orig[i])))
	}
	return p, nil
}

// CheckConsistent validates the snapshot's structural invariants the slow
// way — every half-edge mutual, in range, 3-regular. It exists for the
// delta-compile fuzzers and differential tests; compile paths never call
// it. The component index needs no check here: every snapshot computes it
// from its own half-edge table on first use.
func (f *Graph) CheckConsistent() error {
	n := f.NumNodes()
	if len(f.halves) != n*3 && f.regular3 {
		return fmt.Errorf("flatgraph: regular3 snapshot has %d halves for %d nodes", len(f.halves), n)
	}
	for i := 0; i < n; i++ {
		if f.regular3 && f.Degree(int32(i)) != 3 {
			return fmt.Errorf("flatgraph: node %d has degree %d in a regular3 snapshot", i, f.Degree(int32(i)))
		}
		for p := f.rowStart[i]; p < f.rowStart[i+1]; p++ {
			h := f.halves[p]
			if h.To < 0 || int(h.To) >= n {
				return fmt.Errorf("flatgraph: node %d half %d targets node %d of %d", i, p-f.rowStart[i], h.To, n)
			}
			if h.Port < 0 || h.Port >= f.Degree(h.To) {
				return fmt.Errorf("flatgraph: node %d half %d targets port %d of degree-%d node %d",
					i, p-f.rowStart[i], h.Port, f.Degree(h.To), h.To)
			}
			back := f.halves[f.rowStart[h.To]+h.Port]
			if back.To != int32(i) || back.Port != p-f.rowStart[i] {
				return fmt.Errorf("flatgraph: half (%d,%d)->(%d,%d) not mutual: reverse is (%d,%d)",
					i, p-f.rowStart[i], h.To, h.Port, back.To, back.Port)
			}
		}
	}
	return nil
}
