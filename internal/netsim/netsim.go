// Package netsim simulates the paper's network model: a static
// port-labeled graph of independent agents with O(log n) memory each,
// passing a message whose header carries O(log n) bits of routing state.
//
// The simulator makes the paper's resource claims *enforceable* rather than
// asserted:
//
//   - protocol handlers are structurally stateless — a handler activation
//     sees only (own identity, arrival port, message header) and returns a
//     decision, so intermediate nodes cannot "remember" anything between
//     messages (Theorem 1's "does not require intermediate nodes to store
//     any information");
//   - each activation charges its working registers against a Memory meter
//     with an O(log n)-bit budget and fails loudly if exceeded;
//   - headers are serialized, and their measured bit-size is reported so
//     the O(log n) overhead claim is a measurement (experiment E7).
//
// Two execution engines are provided: a deterministic sequential token
// engine (used by all experiments) and a goroutine-per-node concurrent
// engine with identical semantics (used by integration tests to exercise
// the protocol under real message passing).
package netsim

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"

	"repro/internal/graph"
)

// Direction is the dir bit of the message header (paper §3).
type Direction int

// Directions of travel along the exploration sequence.
const (
	Forward Direction = iota + 1
	Backward
)

// String returns "forward" or "back" as in the paper's pseudocode.
func (d Direction) String() string {
	switch d {
	case Forward:
		return "forward"
	case Backward:
		return "back"
	default:
		return fmt.Sprintf("direction(%d)", int(d))
	}
}

// Status is the status bit of the message header.
type Status int

// Message statuses; None while the forward search is still running.
const (
	StatusNone Status = iota
	StatusSuccess
	StatusFailure
)

// String renders the status.
func (s Status) String() string {
	switch s {
	case StatusNone:
		return "none"
	case StatusSuccess:
		return "success"
	case StatusFailure:
		return "failure"
	default:
		return fmt.Sprintf("status(%d)", int(s))
	}
}

// Header is the message header of Algorithm Route: source, target,
// direction, status, and the index i into the exploration sequence. Its
// serialized size is Θ(log n) bits.
type Header struct {
	Src    graph.NodeID
	Dst    graph.NodeID
	Dir    Direction
	Status Status
	Index  int64
}

// Encode serializes the header compactly (varints; one byte for
// dir+status).
func (h Header) Encode() []byte {
	buf := make([]byte, 0, 2*binary.MaxVarintLen64+binary.MaxVarintLen64+1)
	buf = binary.AppendVarint(buf, int64(h.Src))
	buf = binary.AppendVarint(buf, int64(h.Dst))
	buf = append(buf, byte(h.Dir)<<4|byte(h.Status))
	buf = binary.AppendVarint(buf, h.Index)
	return buf
}

// DecodeHeader parses the Encode format.
func DecodeHeader(b []byte) (Header, error) {
	var h Header
	src, n := binary.Varint(b)
	if n <= 0 {
		return h, errors.New("netsim: bad header src")
	}
	b = b[n:]
	dst, n := binary.Varint(b)
	if n <= 0 {
		return h, errors.New("netsim: bad header dst")
	}
	b = b[n:]
	if len(b) == 0 {
		return h, errors.New("netsim: bad header flags")
	}
	flags := b[0]
	b = b[1:]
	idx, n := binary.Varint(b)
	if n <= 0 {
		return h, errors.New("netsim: bad header index")
	}
	h.Src = graph.NodeID(src)
	h.Dst = graph.NodeID(dst)
	h.Dir = Direction(flags >> 4)
	h.Status = Status(flags & 0xf)
	h.Index = idx
	return h, nil
}

// Bits returns the serialized header size in bits — the message overhead
// the paper bounds by O(log n). It is computed arithmetically rather than
// by calling Encode: the token engine evaluates it on every activation, and
// materializing a buffer per hop was the single allocation in the hop loop
// (TestHeaderBitsMatchEncode pins the two in sync).
func (h Header) Bits() int {
	return 8 * (varintLen(int64(h.Src)) + varintLen(int64(h.Dst)) + 1 + varintLen(h.Index))
}

// varintLen is the byte length binary.AppendVarint produces for v: zig-zag
// encode, then one byte per started 7-bit group.
func varintLen(v int64) int {
	ux := uint64(v) << 1
	if v < 0 {
		ux = ^ux
	}
	return (bits.Len64(ux|1) + 6) / 7
}

// Errors reported by the engines.
var (
	ErrHopBudget      = errors.New("netsim: hop budget exhausted")
	ErrMemoryExceeded = errors.New("netsim: node memory budget exceeded")
	ErrNoDecision     = errors.New("netsim: handler returned no decision")
	// ErrMessageLost reports a fault-injected loss (WithFault): the paper
	// assumes a static, reliable network; the fault hook exists to verify
	// the implementation fails loudly — never with a wrong verdict — when
	// that assumption is violated.
	ErrMessageLost = errors.New("netsim: message lost (injected fault)")
)

// Memory meters the working registers of one handler activation against a
// bit budget. Handlers charge every local register they materialize;
// exceeding the budget aborts the run, which is how the O(log n)-space
// claim is enforced rather than assumed.
type Memory struct {
	budget int
	used   int
	peak   int
}

// NewMemory returns a meter with the given bit budget; budget <= 0 means
// unlimited (used by baselines that deliberately exceed O(log n)).
func NewMemory(budgetBits int) *Memory {
	return &Memory{budget: budgetBits}
}

// Charge reserves bits and fails if the budget would be exceeded.
func (m *Memory) Charge(bits int) error {
	m.used += bits
	if m.used > m.peak {
		m.peak = m.used
	}
	if m.budget > 0 && m.used > m.budget {
		return fmt.Errorf("%w: %d bits used, budget %d", ErrMemoryExceeded, m.used, m.budget)
	}
	return nil
}

// Reset clears the current usage (between activations) while keeping the
// peak statistic.
func (m *Memory) Reset() { m.used = 0 }

// Peak returns the maximum bits held at once across all activations.
func (m *Memory) Peak() int { return m.peak }

// Budget returns the configured budget in bits (0 = unlimited).
func (m *Memory) Budget() int { return m.budget }

// DecisionKind says what a handler wants done with the message.
type DecisionKind int

// Handler decisions: forward through a port, deliver locally (terminal), or
// drop (terminal, e.g. budget exhaustion in baselines).
const (
	Send DecisionKind = iota + 1
	Deliver
	Drop
)

// Decision is a handler's verdict for one message activation.
type Decision struct {
	Kind    DecisionKind
	OutPort int
}

// Handler is the per-node protocol logic. Implementations must be
// stateless with respect to the node: all routing state travels in the
// header. Degree reports the local degree; mem meters the activation's
// working registers.
type Handler interface {
	OnMessage(self graph.NodeID, inPort int, degree int, h *Header, mem *Memory) (Decision, error)
}

// TraceFunc observes each activation: hop count so far, current node,
// arrival port, and the header as received.
type TraceFunc func(hop int64, at graph.NodeID, inPort int, h Header)

// Result summarizes a token run.
type Result struct {
	// Final is the node where the message was delivered or dropped.
	Final graph.NodeID
	// Delivered is true if the handler returned Deliver.
	Delivered bool
	// Hops is the number of edge traversals performed.
	Hops int64
	// Header is the header at termination.
	Header Header
	// MaxHeaderBits is the largest serialized header observed.
	MaxHeaderBits int
	// PeakMemoryBits is the peak per-activation working memory.
	PeakMemoryBits int
}

// Engine is the deterministic sequential token engine: exactly one message
// exists; each step hands it to the handler of the current node and follows
// the decision.
type Engine struct {
	g       *graph.Graph
	handler Handler
	budget  *Memory
	trace   TraceFunc
	fault   func(hop int64) bool
	wire    bool
}

// Option configures an Engine.
type Option interface{ apply(*Engine) }

type optionFunc func(*Engine)

func (f optionFunc) apply(e *Engine) { f(e) }

// WithMemoryBudget enforces a per-activation working-memory budget in bits.
func WithMemoryBudget(bits int) Option {
	return optionFunc(func(e *Engine) { e.budget = NewMemory(bits) })
}

// WithTrace registers a per-hop observer.
func WithTrace(f TraceFunc) Option {
	return optionFunc(func(e *Engine) { e.trace = f })
}

// WithFault installs a fault injector: when f returns true for the hop
// about to be performed, the message is lost in transit and the run ends
// with ErrMessageLost. Used by failure-injection tests to verify the
// static-network assumption fails loudly rather than silently.
func WithFault(f func(hop int64) bool) Option {
	return optionFunc(func(e *Engine) { e.fault = f })
}

// WithWireFormat makes every hop round-trip the header through its
// serialized form (Encode/DecodeHeader), exactly as a real radio link
// would. This catches any divergence between the in-memory header and the
// O(log n)-bit wire representation under real protocol traffic.
func WithWireFormat() Option {
	return optionFunc(func(e *Engine) { e.wire = true })
}

// NewEngine builds a token engine over g.
func NewEngine(g *graph.Graph, h Handler, opts ...Option) *Engine {
	e := &Engine{g: g, handler: h, budget: NewMemory(0)}
	for _, o := range opts {
		o.apply(e)
	}
	return e
}

// Run injects a message at start (as if arriving on startPort) and drives
// it until the handler delivers or drops it, or maxHops is exceeded.
func (e *Engine) Run(start graph.NodeID, startPort int, h Header, maxHops int64) (*Result, error) {
	st, err := e.Stepper(start, startPort, h, maxHops)
	if err != nil {
		return nil, err
	}
	for !st.Step() {
	}
	return st.Result(), st.Err()
}
