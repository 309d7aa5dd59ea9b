package flatgraph

import (
	"errors"
	"fmt"

	"repro/internal/graph"
)

// Snapshot patching: build a fresh immutable snapshot from an existing one
// plus a sparse set of edits, instead of writing every row again. The
// mechanical work here is one copy of the port table (the untouched rows
// ride a memcpy) plus O(edits) overwrites, then New; all gadget-level
// reasoning — which rows change and what they now contain — belongs to
// the caller (degred.ApplyDelta). A patched snapshot computes its
// component index on first use, like any other. The old snapshot is never
// modified: concurrent walkers holding it keep exactly the contract they
// have always had.

// ErrBadPatch means a patch spec is internally inconsistent (out-of-range
// node, port, or projection array of the wrong length).
var ErrBadPatch = errors.New("flatgraph: bad patch spec")

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

// Patch builds a new immutable snapshot from f and the spec, sharing
// nothing mutable with f. It checks only the spec's bounds: whether the
// patched table is mutual is the caller's to guarantee, since checking
// every row would cost the delta path what it saves.
func (f *Graph) Patch(spec PatchSpec) (*Graph, error) {
	n := spec.NumNodes
	if n <= 0 || len(spec.Orig) != n {
		return nil, fmt.Errorf("%w: %d nodes, %d projections", ErrBadPatch, n, len(spec.Orig))
	}
	halves := make([]Half32, n*3)
	// Untouched rows: one copy of the shared prefix.
	copy(halves, f.halves)
	for _, rw := range spec.Rows {
		if rw.Node < 0 || int(rw.Node) >= n {
			return nil, fmt.Errorf("%w: row write at node %d of %d", ErrBadPatch, rw.Node, n)
		}
		copy(halves[rw.Node*3:rw.Node*3+3], rw.Halves[:])
	}
	for _, hw := range spec.Halves {
		if hw.Node < 0 || int(hw.Node) >= n || hw.Port < 0 || hw.Port > 2 {
			return nil, fmt.Errorf("%w: half write at node %d port %d", ErrBadPatch, hw.Node, hw.Port)
		}
		halves[hw.Node*3+hw.Port] = hw.H
	}
	return New(halves, spec.Orig), nil
}

// CheckConsistent validates the snapshot's structural invariants: a port
// table of exactly three halves per node, every half in range and mutual.
// degred.Reduce runs it once on every table it builds, so a construction
// bug is an error rather than a wrong walk; Patch skips it, and the
// delta-compile fuzzers and differential tests call it instead.
func (f *Graph) CheckConsistent() error {
	n := f.NumNodes()
	if len(f.halves) != n*3 {
		return fmt.Errorf("flatgraph: %d halves for %d nodes", len(f.halves), n)
	}
	for i, h := range f.halves {
		node, port := i/3, i%3
		if h.To < 0 || int(h.To) >= n || h.Port < 0 || h.Port > 2 {
			return fmt.Errorf("flatgraph: half (%d,%d) targets (%d,%d) outside %d nodes of degree 3",
				node, port, h.To, h.Port, n)
		}
		if back := f.halves[h.To*3+h.Port]; int(back.To) != node || int(back.Port) != port {
			return fmt.Errorf("flatgraph: half (%d,%d)->(%d,%d) not mutual: reverse is (%d,%d)",
				node, port, h.To, h.Port, back.To, back.Port)
		}
	}
	return nil
}
