package flatgraph

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/graph"
	"repro/internal/ues"
)

// Half32 is a half-edge: the dense index of the far node and the port
// (local label) under which the same edge is known there. The port table
// stores each one packed into a uint32 (see Pack); Half decodes it.
type Half32 struct {
	To   int32
	Port int32
}

// MaxNodes is the most nodes a snapshot can hold. A packed half-edge keeps
// the far node in 30 bits, and the walkers keep a table slot node*3+port,
// plus one, in an int32; the second bound is the tighter.
const MaxNodes = math.MaxInt32 / 3

// Pack returns h in the port table's stored form, the far node shifted
// left by two with the far port in the low bits: the element type of the
// tables New wraps and Table copies. h.To must lie in [0, MaxNodes) and
// h.Port in [0, 3).
func (h Half32) Pack() uint32 { return uint32(h.To)<<2 | uint32(h.Port) }

// unpack splits a stored half-edge into the far node and far port.
func unpack(e uint32) (to, port int32) { return int32(e >> 2), int32(e & 3) }

// Graph is an immutable snapshot of a degree-reduced graph G′: its
// 3-regular port table together with the projection back to the original
// nodes each snapshot node simulates. Node IDs are the dense indices
// 0..NumNodes-1. The table and the projection never change after New, and
// the component index is memoized under a sync.Once, so one Graph is
// safely shared by any number of concurrent walkers.
type Graph struct {
	// halves is the flat port table: halves[3*i+p] is the packed half-edge
	// leaving node i through port p. It holds no pointers, so a generation
	// costs the collector nothing to scan.
	halves []uint32
	// orig maps node -> the original node it simulates (the gadget
	// projection of degred).
	orig []graph.NodeID
	// memw caches, per node, the metering width of its two identity
	// registers (wordBits(i) + wordBits(orig[i])) so the walkers'
	// memory-metering replica costs one byte load per hop instead of two
	// Len64 computations.
	memw []uint8
	// compOnce/comps memoize the connected-component index (see
	// components.go); computed lazily on first Components call.
	compOnce sync.Once
	comps    *Components
}

// New wraps a 3-regular port table as a snapshot and takes ownership of
// both slices: halves[3*i+p] is the half-edge leaving node i through port
// p, packed by Half32.Pack, and orig[i] is the original node that node i
// simulates, so halves must hold 3*len(orig) entries and len(orig) must
// not exceed MaxNodes. New does not validate the table; a builder that
// cannot vouch for its rows checks the result with CheckConsistent before
// any walk runs on it.
func New(halves []uint32, orig []graph.NodeID) *Graph {
	memw := make([]uint8, len(orig))
	for i, o := range orig {
		memw[i] = uint8(wordBits(int64(i)) + wordBits(int64(o)))
	}
	return &Graph{halves: halves, orig: orig, memw: memw}
}

// Table returns a fresh copy of the packed port table resized to n nodes:
// rows past the snapshot's node count are zero and rows past n are
// dropped. degred.ApplyDelta edits the copy into the next generation and
// wraps it with New; the receiver never changes, so walkers holding it
// are undisturbed.
func (f *Graph) Table(n int) []uint32 {
	// A make followed by a copy from a local compiles to one
	// runtime.makeslicecopy, which zeroes only the rows the copy leaves.
	src := f.halves
	halves := make([]uint32, 3*n)
	copy(halves, src)
	return halves
}

// CheckConsistent validates the snapshot's structural invariants: a port
// table of exactly three halves per node, every half in range and mutual.
// degred.Reduce runs it once on every table it builds, so a construction
// bug is an error rather than a wrong walk; ApplyDelta skips it, since
// checking every row would cost the delta path what it saves, and the
// delta-compile fuzzers and differential tests call it instead.
func (f *Graph) CheckConsistent() error {
	n := f.NumNodes()
	if len(f.halves) != n*3 {
		return fmt.Errorf("flatgraph: %d halves for %d nodes", len(f.halves), n)
	}
	for i, e := range f.halves {
		node, port := i/3, i%3
		to, far := unpack(e)
		if int(to) >= n || far > 2 {
			return fmt.Errorf("flatgraph: half (%d,%d) targets (%d,%d) outside %d nodes of degree 3",
				node, port, to, far, n)
		}
		if backTo, backPort := unpack(f.halves[to*3+far]); int(backTo) != node || int(backPort) != port {
			return fmt.Errorf("flatgraph: half (%d,%d)->(%d,%d) not mutual: reverse is (%d,%d)",
				node, port, to, far, backTo, backPort)
		}
	}
	return nil
}

// NumNodes returns the number of snapshot nodes.
func (f *Graph) NumNodes() int { return len(f.orig) }

// Index returns the dense index of id and whether it is a snapshot node:
// gadget IDs are the dense indices themselves.
func (f *Graph) Index(id graph.NodeID) (int32, bool) {
	if id < 0 || id >= graph.NodeID(len(f.orig)) {
		return 0, false
	}
	return int32(id), true
}

// OriginalOf returns the original node simulated by dense node i.
func (f *Graph) OriginalOf(i int32) graph.NodeID { return f.orig[i] }

// Half returns the half-edge leaving dense node i through port p.
func (f *Graph) Half(i, p int32) Half32 {
	to, port := unpack(f.halves[i*3+p])
	return Half32{To: to, Port: port}
}

// Step performs one exploration hop from (node, inPort) with direction t:
// leave through port (inPort + t) mod 3 and return the far half-edge as the
// next position. t must lie in [0, 3) — true for base-3 sequences — and
// this is the whole per-hop work of the paper's walk rule.
func (f *Graph) Step(node, inPort, t int32) (int32, int32) {
	exit := inPort + t
	if exit >= 3 {
		exit -= 3
	}
	return unpack(f.halves[node*3+exit])
}

// Closed reports whether the visited set (dense indices with visited[i]
// true) is closed under neighbourhood — the §4 check deciding that a walk
// covered its whole component. visited must have length NumNodes.
func (f *Graph) Closed(visited []bool) bool {
	for i := range visited {
		if !visited[i] {
			continue
		}
		for _, e := range f.halves[i*3 : i*3+3] {
			if to, _ := unpack(e); !visited[to] {
				return false
			}
		}
	}
	return true
}

// Seq is the protocol's exploration sequence T_bound: the i-th direction
// is ues.Symbol(Seed, i, Base) for 1 ≤ i ≤ Length. The router derives it
// from its configuration for every round and hands it to the walk loops
// by value, where the symbol derivation inlines; the reference engine and
// the local replays read the same value as a ues.Sequence.
type Seq struct {
	Seed   uint64
	Base   int
	Length int
}

var _ ues.Sequence = Seq{}

// At returns the i-th direction. It panics outside [1, Length], which
// indicates a protocol bug (walkers always bound i by Len).
func (s Seq) At(i int) int {
	if i < 1 || i > s.Length {
		panic(fmt.Sprintf("flatgraph: At(%d) outside [1..%d]", i, s.Length))
	}
	return ues.Symbol(s.Seed, uint64(i), s.Base)
}

// Len returns the sequence length.
func (s Seq) Len() int { return s.Length }

// Fill writes directions from..from+len(buf)-1 into buf — the per-walk
// block prefetch that amortizes the sequence oracle across hops.
func (s Seq) Fill(buf []int8, from int64) {
	for k := range buf {
		buf[k] = int8(ues.Symbol(s.Seed, uint64(from+int64(k)), s.Base))
	}
}
