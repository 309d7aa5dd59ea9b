// Package ues implements exploration sequences (paper §2): the walk rule,
// its reversibility, sequence generators with O(log n)-space random access,
// cover checking, and empirical universality verification.
//
// An exploration sequence is a list of integer "directions" t_1, t_2, ….
// If before step i the walk entered vertex v on the edge labeled a (at v),
// it leaves on the edge labeled (a + t_i) mod deg(v). A sequence is a
// universal exploration sequence (UES) for 3-regular graphs of size ≤ n if
// following it visits every vertex, for every connected 3-regular graph of
// that size, every labeling, and every initial edge (Definition 3).
//
// Reingold's theorem (Theorem 4 in the paper) guarantees a log-space
// constructible UES; the explicit object is astronomically long and is used
// by the paper purely as an existence result. This package supplies the
// protocol-visible equivalent: Pseudorandom sequences whose i-th symbol is
// computable statelessly in O(1) words (= O(log n) bits) — the exact
// property §2 requires of T_n — with polynomial length and empirically
// verified universality over corpora of labeled cubic multigraphs (see
// Verify and corpus.go). The router walks the same family as a value,
// flatgraph.Seq, whose i-th symbol is this package's Symbol. The
// derandomization machinery behind Reingold's theorem lives in the sibling
// package zigzag.
package ues

import (
	"errors"
	"fmt"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/prng"
)

// Errors reported by walks and verification.
var (
	ErrNotUniversal = errors.New("ues: sequence failed universality check")
)

// Sequence is random access to an exploration sequence. Indices are
// 1-based, matching the paper's i ∈ [1..Ln].
type Sequence interface {
	// At returns the i-th direction, 1 ≤ i ≤ Len.
	At(i int) int
	// Len returns the number of directions.
	Len() int
}

// Position is the walker state: the walk is at Node, having entered it
// through the port InPort (the label l(v,u) of the arrival edge at v). A
// walk starting at s uses the convention InPort = 0, i.e. the initial edge
// e0 is the port-0 edge of s.
type Position struct {
	Node   graph.NodeID
	InPort int
}

// Start returns the canonical initial position at s.
func Start(s graph.NodeID) Position {
	return Position{Node: s, InPort: 0}
}

// NextPort returns the exit label after entering on inPort with direction
// t, at a vertex of degree deg: (inPort + t) mod deg.
func NextPort(deg, inPort, t int) int {
	return mod(inPort+t, deg)
}

// PrevPort inverts NextPort: the arrival label given the exit label and
// direction t: (exitPort - t) mod deg.
func PrevPort(deg, exitPort, t int) int {
	return mod(exitPort-t, deg)
}

// Step advances the walk one step from pos using direction t — the paper's
// next_v((u,v), T[i]).
func Step(g *graph.Graph, pos Position, t int) (Position, error) {
	deg := g.Degree(pos.Node)
	if deg <= 0 {
		return Position{}, fmt.Errorf("ues: step from degree-%d node %d", deg, pos.Node)
	}
	exit := NextPort(deg, pos.InPort, t)
	h, err := g.Neighbor(pos.Node, exit)
	if err != nil {
		return Position{}, fmt.Errorf("ues: step: %w", err)
	}
	return Position{Node: h.To, InPort: h.ToPort}, nil
}

// StepBack inverts Step: given the position *after* a step with direction
// t, it returns the position before that step — the paper's
// prev_v((v,w), T[i]), using the reversibility of exploration sequences.
func StepBack(g *graph.Graph, pos Position, t int) (Position, error) {
	h, err := g.Neighbor(pos.Node, pos.InPort)
	if err != nil {
		return Position{}, fmt.Errorf("ues: step back: %w", err)
	}
	deg := g.Degree(h.To)
	if deg <= 0 {
		return Position{}, fmt.Errorf("ues: step back into degree-%d node %d", deg, h.To)
	}
	return Position{Node: h.To, InPort: PrevPort(deg, h.ToPort, t)}, nil
}

// Trace follows seq from Start(s) for at most maxSteps steps (capped at
// seq.Len()) and returns the sequence of positions visited, starting with
// the initial position. Used by tests and the cover checker; the routing
// protocol itself never materializes a trace.
func Trace(g *graph.Graph, s graph.NodeID, seq Sequence, maxSteps int) ([]Position, error) {
	if maxSteps > seq.Len() {
		maxSteps = seq.Len()
	}
	out := make([]Position, 0, maxSteps+1)
	pos := Start(s)
	out = append(out, pos)
	for i := 1; i <= maxSteps; i++ {
		next, err := Step(g, pos, seq.At(i))
		if err != nil {
			return out, err
		}
		pos = next
		out = append(out, pos)
	}
	return out, nil
}

// CoverSteps walks seq from the given start position and returns the number
// of steps after which every node of start's component has been visited. ok
// is false if the sequence was exhausted before covering.
func CoverSteps(g *graph.Graph, start Position, seq Sequence) (steps int, ok bool, err error) {
	comp := g.ComponentOf(start.Node)
	if comp == nil {
		return 0, false, fmt.Errorf("%w: %d", graph.ErrNodeNotFound, start.Node)
	}
	remaining := make(map[graph.NodeID]bool, len(comp))
	for _, v := range comp {
		remaining[v] = true
	}
	pos := start
	delete(remaining, pos.Node)
	if len(remaining) == 0 {
		return 0, true, nil
	}
	for i := 1; i <= seq.Len(); i++ {
		pos, err = Step(g, pos, seq.At(i))
		if err != nil {
			return i, false, err
		}
		delete(remaining, pos.Node)
		if len(remaining) == 0 {
			return i, true, nil
		}
	}
	return seq.Len(), false, nil
}

// Covers reports whether following seq from every possible initial edge of
// s's component visits the entire component — the Definition 3 condition
// restricted to one labeled graph and one component.
func Covers(g *graph.Graph, s graph.NodeID, seq Sequence) (bool, error) {
	comp := g.ComponentOf(s)
	if comp == nil {
		return false, fmt.Errorf("%w: %d", graph.ErrNodeNotFound, s)
	}
	for _, v := range comp {
		for p := 0; p < g.Degree(v); p++ {
			_, ok, err := CoverSteps(g, Position{Node: v, InPort: p}, seq)
			if err != nil {
				return false, err
			}
			if !ok {
				return false, nil
			}
		}
	}
	return true, nil
}

func mod(a, m int) int {
	r := a % m
	if r < 0 {
		r += m
	}
	return r
}

// Pseudorandom is an exploration sequence whose i-th symbol is derived from
// a stateless PRF: At(i) touches O(1) machine words, so a node can compute
// any T[i] with O(log n) bits of memory — the random-access property §2
// requires from Reingold's construction. Empirically these sequences cover
// all tested cubic multigraphs well within the default length (see the E4
// experiment and TestPseudorandomUniversalSmall).
type Pseudorandom struct {
	// Seed selects the sequence; all nodes participating in one routing run
	// must share it (it is part of the protocol configuration, not state).
	Seed uint64
	// N is the graph-size bound the sequence targets.
	N int
	// Base is the direction alphabet size: 3 for 3-regular graphs
	// (Definition 3). If Base == 0, At returns a full-range value, which
	// the walk rule reduces mod deg(v) — used by the no-degree-reduction
	// ablation on irregular graphs.
	Base int
	// LengthFactor scales the sequence length; 0 means DefaultLengthFactor.
	LengthFactor int

	// length memoizes Len (a Θ(log n) computation otherwise repeated by
	// every At bounds check). N and LengthFactor must not change after the
	// first At/Len call.
	length atomic.Int64
}

// DefaultLengthFactor is the constant c in L(n) = c·n²·(⌈log₂ n⌉+1); n² is
// the random-walk cover-time envelope for bounded-degree graphs (paper §2,
// refs [3,7]) and the log factor is the high-probability margin.
const DefaultLengthFactor = 8

// Length returns c·n²·(⌈log₂ n⌉+1), the default sequence length for graphs
// of size ≤ n.
func Length(n, factor int) int {
	if n < 2 {
		n = 2
	}
	if factor <= 0 {
		factor = DefaultLengthFactor
	}
	lg := 1
	for v := n; v > 1; v >>= 1 {
		lg++
	}
	return factor * n * n * lg
}

// At returns the i-th direction. It panics only on out-of-range indices,
// which indicates a protocol bug (walkers always bound i by Len).
func (p *Pseudorandom) At(i int) int {
	if i < 1 || i > p.Len() {
		panic(fmt.Sprintf("ues: At(%d) outside [1..%d]", i, p.Len()))
	}
	return Symbol(p.Seed, uint64(i), p.Base)
}

// Symbol is the single shared PRF-to-direction derivation: Pseudorandom
// here and the protocol's T_bound (flatgraph.Seq) both read it, since all
// nodes of a deployment consult the same T_n.
func Symbol(seed, i uint64, base int) int {
	v := prng.At(seed, i)
	if base == 3 {
		// The 3-regular alphabet is the protocol's hot case; the constant
		// divisor lets the compiler emit a multiply-shift reduction instead
		// of a hardware divide in the per-hop oracle.
		return int(v % 3)
	}
	if base <= 0 {
		return int(v >> 1 & 0x7fffffff) // non-negative full-range direction
	}
	return int(v % uint64(base))
}

// Len returns the sequence length for the configured size bound, computed
// once and memoized.
func (p *Pseudorandom) Len() int {
	if l := p.length.Load(); l != 0 {
		return int(l)
	}
	l := Length(p.N, p.LengthFactor)
	p.length.Store(int64(l))
	return l
}

var _ Sequence = (*Pseudorandom)(nil)

// Precomputed is an explicit in-memory exploration sequence, used for tiny
// verified sequences and in tests.
type Precomputed []int

// At returns the i-th direction (1-based).
func (s Precomputed) At(i int) int {
	if i < 1 || i > len(s) {
		panic(fmt.Sprintf("ues: At(%d) outside [1..%d]", i, len(s)))
	}
	return s[i-1]
}

// Len returns the sequence length.
func (s Precomputed) Len() int { return len(s) }

var _ Sequence = Precomputed(nil)
