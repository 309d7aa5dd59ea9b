// Package count implements §4 of the paper: computing the number of nodes
// in the connected component of s with no prior knowledge of the network,
// using only O(log n)-space message primitives.
//
// The algorithm runs exploration sequences T_2, T_4, T_8, … from s and, for
// each bound, checks whether the walk's visited set is closed under
// neighbourhood — if every neighbour of a visited node is visited, the set
// equals the component C_s, and counting distinct identifiers along the
// walk yields |C_s|. The primitives are:
//
//	Retrieve(s, T, i)            — the identifier of the i-th node of the walk
//	RetrieveNeighbor(s, T, i, j) — the identifier of the j-th neighbour of that node
//
// both implemented as real messages: a walk out to step i (one extra hop
// for the neighbour variant) and a reversed walk back carrying one
// identifier — exactly the O(k) indexes + one vertex ID the paper allows.
//
// Two modes are provided. ModeMessages executes every Retrieve as an actual
// message exchange, with full hop accounting: Θ(L²) retrieves of Θ(L) hops
// each, the cost the paper accepts for the counting result. ModeLocal
// computes the identical answer by simulating the walks at the source; it
// exists so experiments can scale the correctness claim to sizes where the
// message-faithful cost (Θ(L³) hops) is prohibitive: each of its rounds is
// one route.Cover, the local cover walk and closure check the router's
// failed rounds and broadcasts run too, whose probe count is the Retrieve
// count. Both modes return identical counts (tested).
package count

import (
	"errors"
	"fmt"

	"repro/internal/degred"
	"repro/internal/graph"
	"repro/internal/netsim"
	"repro/internal/route"
	"repro/internal/ues"
)

// Mode selects the execution strategy.
type Mode int

// Execution modes; see the package comment.
const (
	ModeMessages Mode = iota + 1
	ModeLocal
)

// ErrBoundCap mirrors route.ErrSequenceExhausted for the counting loop.
var ErrBoundCap = errors.New("count: bound cap reached without covering component")

// Config parameterizes a Counter.
type Config struct {
	// Seed selects the exploration sequence family.
	Seed uint64
	// LengthFactor scales sequence lengths (ues.Length); 0 = default.
	// Message-mode callers typically lower it: the counting cost is
	// cubic in the sequence length.
	LengthFactor int
	// Mode selects message-faithful or locally simulated execution;
	// 0 = ModeLocal.
	Mode Mode
	// MaxBound caps the doubling loop (0 = 4·|V(G′)|).
	MaxBound int
	// DisableFlat forces ModeLocal rounds through route.Cover's reference
	// walk even when the compiled flat snapshot is available (differential
	// tests and debugging; ModeMessages always runs real messages
	// regardless).
	DisableFlat bool
}

// Result reports a counting run.
type Result struct {
	// ReducedCount is |C_s| in the 3-regular G′ — the n of §4, usable as
	// the routing bound.
	ReducedCount int
	// OriginalCount is the number of distinct original nodes in C_s.
	OriginalCount int
	// Bound is the terminal sequence bound 2^k.
	Bound int
	// Rounds is the number of doubling rounds executed.
	Rounds int
	// Retrieves counts Retrieve/RetrieveNeighbor invocations.
	Retrieves int64
	// Hops counts message hops (ModeMessages; 0 in ModeLocal).
	Hops int64
}

// Counter counts component sizes on a fixed graph. ModeLocal rounds are
// route.Cover walks of a Router over the same reduction, on its compiled
// flat snapshot unless DisableFlat; ModeMessages executes real message
// walks on the reference token engine.
type Counter struct {
	red *degred.Reduced
	r   *route.Router
	cfg Config
}

// New builds a Counter for g, deriving the degree reduction. Callers that
// already hold a Reduced for g should use NewFromReduced.
func New(g *graph.Graph, cfg Config) (*Counter, error) {
	red, err := degred.Reduce(g)
	if err != nil {
		return nil, fmt.Errorf("count: %w", err)
	}
	return NewFromReduced(g, red, cfg)
}

// NewFromReduced builds a Counter for g from a precomputed degree
// reduction of g, sharing the artifact with any Router built the same way.
func NewFromReduced(g *graph.Graph, red *degred.Reduced, cfg Config) (*Counter, error) {
	if red == nil {
		return nil, errors.New("count: NewFromReduced: nil reduction")
	}
	if cfg.Mode == 0 {
		cfg.Mode = ModeLocal
	}
	r, err := route.NewFromReduced(g, red, route.Config{Seed: cfg.Seed, LengthFactor: cfg.LengthFactor, DisableFlat: cfg.DisableFlat})
	if err != nil {
		return nil, fmt.Errorf("count: %w", err)
	}
	return &Counter{red: red, r: r, cfg: cfg}, nil
}

// Count runs Algorithm CountNodes(s) (§4).
func (c *Counter) Count(s graph.NodeID) (*Result, error) {
	start, ok := c.red.Entry(s)
	if !ok {
		return nil, fmt.Errorf("count: %w: %d", graph.ErrNodeNotFound, s)
	}
	maxBound := c.cfg.MaxBound
	if maxBound <= 0 {
		maxBound = 4 * c.red.Flat().NumNodes()
	}
	res := &Result{}
	for bound := 2; ; bound *= 2 {
		if bound > maxBound {
			bound = maxBound
		}
		res.Rounds++
		res.Bound = bound
		var covered bool
		var err error
		if c.cfg.Mode == ModeLocal {
			covered, err = c.localRound(s, bound, res)
		} else {
			seq := c.r.Sequence(bound)
			covered, err = c.closureCheck(start, seq, res)
			if err == nil && covered {
				err = c.countDistinct(start, seq, res)
			}
		}
		if err != nil {
			return res, err
		}
		if covered {
			return res, nil
		}
		if bound >= maxBound {
			return res, fmt.Errorf("%w: bound %d", ErrBoundCap, bound)
		}
	}
}

// localRound runs one ModeLocal doubling round: the local cover walk, its
// closure check with the Retrieve accounting (first-visit order, first miss
// aborts), and — once covered — the distinct-identifier counts at both
// graph levels.
func (c *Counter) localRound(s graph.NodeID, bound int, res *Result) (bool, error) {
	cov, err := c.r.Cover(s, bound, true)
	if err != nil {
		return false, err
	}
	covered, probes, err := cov.Closed()
	res.Retrieves += probes
	if covered {
		res.ReducedCount, res.OriginalCount = cov.Size(), len(cov.Originals())
	}
	return covered, err
}

// closureCheck is the paper's inner do-loop body: for every walk position i
// and neighbour slot j, check whether the neighbour appears somewhere along
// the walk. The first miss proves the walk has not covered C_s ("skip to
// while"). Position 0 is the start itself.
func (c *Counter) closureCheck(start graph.NodeID, seq ues.Sequence, res *Result) (bool, error) {
	l := seq.Len()
	for i := 0; i <= l; i++ {
		for j := 0; j < 3; j++ {
			u, err := c.retrieveNeighbor(start, seq, i, j, res)
			if err != nil {
				return false, err
			}
			seen := false
			for k := 0; k <= l; k++ {
				v, err := c.retrieve(start, seq, k, res)
				if err != nil {
					return false, err
				}
				if v == u {
					seen = true
					break
				}
			}
			if !seen {
				return false, nil // NewNodeDiscovered: skip to while
			}
		}
	}
	return true, nil
}

// countDistinct is the paper's final counting loop: NodeCount over distinct
// identifiers among v_0..v_L, comparing each position against all earlier
// positions, by replaying walks.
func (c *Counter) countDistinct(start graph.NodeID, seq ues.Sequence, res *Result) error {
	l := seq.Len()
	reduced, originals := 0, 0
	for i := 0; i <= l; i++ {
		vi, err := c.retrieve(start, seq, i, res)
		if err != nil {
			return err
		}
		isNew := true
		for k := 0; k < i; k++ {
			vk, err := c.retrieve(start, seq, k, res)
			if err != nil {
				return err
			}
			if vk == vi {
				isNew = false
				break
			}
		}
		if isNew {
			reduced++
		}
		// Same scan at the level of original identifiers.
		oi, _ := c.red.Original(vi)
		isNewOrig := true
		for k := 0; k < i; k++ {
			vk, err := c.retrieve(start, seq, k, res)
			if err != nil {
				return err
			}
			ok, _ := c.red.Original(vk)
			if ok == oi {
				isNewOrig = false
				break
			}
		}
		if isNewOrig {
			originals++
		}
	}
	res.ReducedCount = reduced
	res.OriginalCount = originals
	return nil
}

// retrieve returns Retrieve(s, T, i): the identifier of the i-th node of
// the walk, fetched by a real message round trip. i = 0 is the start
// itself (no messages).
func (c *Counter) retrieve(start graph.NodeID, seq ues.Sequence, i int, res *Result) (graph.NodeID, error) {
	res.Retrieves++
	if i == 0 {
		return start, nil
	}
	return c.walkQuery(start, seq, i, -1, res)
}

// retrieveNeighbor returns RetrieveNeighbor(s, T, i, j): the identifier of
// the node behind port j of the walk's i-th node (one extra hop out and
// back).
func (c *Counter) retrieveNeighbor(start graph.NodeID, seq ues.Sequence, i, j int, res *Result) (graph.NodeID, error) {
	res.Retrieves++
	return c.walkQuery(start, seq, i, j, res)
}

// walkQuery sends the query message: forward along T to position i,
// optionally peek through port j, then reverse back to the source carrying
// the answer. The message header uses Dst to carry the target step on the
// way out and the retrieved identifier on the way back; Index is the
// exploration index, exactly as in Algorithm Route.
func (c *Counter) walkQuery(start graph.NodeID, seq ues.Sequence, i, peekPort int, res *Result) (graph.NodeID, error) {
	h := netsim.Header{
		Src:    graph.NodeID(i), // target step count
		Dst:    0,
		Dir:    netsim.Forward,
		Status: netsim.StatusNone,
		Index:  1,
	}
	handler := &queryHandler{seq: seq, peekPort: peekPort, origin: start}
	eng := netsim.NewEngine(c.red.Graph(), handler, netsim.WithMemoryBudget(0))
	out, err := eng.Run(start, 0, h, 2*int64(i)+8)
	if out != nil {
		res.Hops += out.Hops
	}
	if err != nil {
		return 0, fmt.Errorf("count: query(%d,%d): %w", i, peekPort, err)
	}
	if !out.Delivered {
		return 0, fmt.Errorf("count: query(%d,%d) dropped at %d", i, peekPort, out.Final)
	}
	return out.Header.Dst, nil
}

// peekStatusBase marks a peek leg in flight; the arrival port of the walk's
// target node (0..2) is stashed in Status as peekStatusBase+port so that
// the stateless target can resume the unwind through the right edge after
// the bounce. This costs 2 extra header bits — still O(log n).
const peekStatusBase = 3

// queryHandler walks forward to step Src; at the target it records the
// answer in Dst (its own ID, or the ID behind peekPort) and reverses. The
// peek costs two extra hops: out through peekPort and an immediate bounce.
type queryHandler struct {
	seq      ues.Sequence
	peekPort int
	origin   graph.NodeID
}

// OnMessage drives the query protocol. States, encoded in (Dir, Status):
// Forward/None = walking out; Forward/peek = peek hop in progress;
// Backward/peek = bounce returning to the walk target; Backward/None =
// unwinding with the answer.
func (qh *queryHandler) OnMessage(self graph.NodeID, inPort, degree int, h *netsim.Header, mem *netsim.Memory) (netsim.Decision, error) {
	if err := mem.Charge(256); err != nil {
		return netsim.Decision{}, err
	}
	switch {
	case h.Dir == netsim.Forward && h.Status >= peekStatusBase:
		// We are the peeked neighbour: record the answer and bounce back.
		h.Dst = self
		h.Dir = netsim.Backward
		return netsim.Decision{Kind: netsim.Send, OutPort: inPort}, nil

	case h.Dir == netsim.Forward:
		target := int64(h.Src)
		if h.Index > target {
			// Arrived at step `target` (Index is the next step to take).
			if qh.peekPort >= 0 {
				h.Status = netsim.Status(peekStatusBase + inPort)
				return netsim.Decision{Kind: netsim.Send, OutPort: qh.peekPort % degree}, nil
			}
			h.Dst = self
			h.Dir = netsim.Backward
			h.Index-- // undo step `target` next
			return netsim.Decision{Kind: netsim.Send, OutPort: inPort}, nil
		}
		t := qh.seq.At(int(h.Index))
		out := ues.NextPort(degree, inPort, t)
		h.Index++
		return netsim.Decision{Kind: netsim.Send, OutPort: out}, nil

	default: // Backward.
		if self == qh.origin {
			// The origin consumes the answer as soon as it sees it.
			return netsim.Decision{Kind: netsim.Deliver}, nil
		}
		if h.Status >= peekStatusBase {
			// Bounce returned to the walk target: restore the walk's
			// arrival port and resume the normal unwind.
			walkArrival := int(h.Status) - peekStatusBase
			h.Status = netsim.StatusNone
			h.Index-- // undo step `target` next
			return netsim.Decision{Kind: netsim.Send, OutPort: walkArrival}, nil
		}
		if h.Index <= 0 {
			return netsim.Decision{}, fmt.Errorf("count: unwound past origin at %d", self)
		}
		t := qh.seq.At(int(h.Index))
		out := ues.PrevPort(degree, inPort, t)
		h.Index--
		return netsim.Decision{Kind: netsim.Send, OutPort: out}, nil
	}
}
