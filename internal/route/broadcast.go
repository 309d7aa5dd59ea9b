package route

import (
	"fmt"
	"sort"

	"repro/internal/flatgraph"
	"repro/internal/graph"
	"repro/internal/netsim"
	"repro/internal/ues"
)

// BroadcastResult is the outcome of a Broadcast call.
type BroadcastResult struct {
	// Reached is the number of distinct original nodes that saw the
	// payload (always includes s).
	Reached int
	// Nodes lists the reached original nodes in increasing order.
	Nodes []graph.NodeID
	// Hops is the total message hops across all rounds.
	Hops int64
	// Rounds holds per-round statistics.
	Rounds []RoundStat
	// Bound is the sequence bound of the terminal round.
	Bound int
	// MaxHeaderBits is the largest serialized header observed.
	MaxHeaderBits int
	// PeakMemoryBits is the peak per-activation working memory.
	PeakMemoryBits int
}

// Broadcast delivers a message from s to every node of s's connected
// component (the paper's broadcasting problem): the same exploration walk,
// delivering the payload at every node it visits, with the backtracking
// confirmation telling s the walk completed. The doubling loop stops once
// the walk provably covered the component (§4 closure check).
func (r *Router) Broadcast(s graph.NodeID) (*BroadcastResult, error) {
	if !r.orig.HasNode(s) {
		return nil, fmt.Errorf("route: source: %w: %d", graph.ErrNodeNotFound, s)
	}
	start, err := r.entry(s)
	if err != nil {
		return nil, err
	}
	res := &BroadcastResult{}
	reached := map[graph.NodeID]bool{s: true}
	originalOf := r.originalOf()

	runRound := func(bound int) error {
		seq := r.sequence(bound)
		if fs, ok := r.flatSeq(seq); ok {
			return r.flatBroadcastRound(start, s, fs, bound, res, reached)
		}
		h := netsim.Header{Src: s, Dir: netsim.Forward, Status: netsim.StatusNone, Index: 1}
		collect := func(hop int64, at graph.NodeID, inPort int, hd netsim.Header) {
			if hd.Dir == netsim.Forward {
				reached[originalOf(at)] = true
			}
			if r.cfg.Trace != nil {
				r.cfg.Trace(hop, at, inPort, hd)
			}
		}
		budget := r.cfg.MemoryBudgetBits
		if budget == 0 {
			budget = DefaultMemoryBudget(r.WorkGraph().NumNodes())
		}
		eng := netsim.NewEngine(r.WorkGraph(), &broadcastHandler{seq: seq, originalOf: originalOf},
			netsim.WithMemoryBudget(budget), netsim.WithTrace(collect))
		out, err := eng.Run(start, 0, h, 2*int64(seq.Len())+8)
		stat := RoundStat{Bound: bound, SeqLen: seq.Len()}
		if out != nil {
			stat.Hops = out.Hops
			res.Hops += out.Hops
			if out.MaxHeaderBits > res.MaxHeaderBits {
				res.MaxHeaderBits = out.MaxHeaderBits
			}
			if out.PeakMemoryBits > res.PeakMemoryBits {
				res.PeakMemoryBits = out.PeakMemoryBits
			}
		}
		if err != nil {
			return err
		}
		if !out.Delivered {
			return fmt.Errorf("route: broadcast confirmation dropped at %d", out.Final)
		}
		stat.Outcome = out.Header.Status
		res.Rounds = append(res.Rounds, stat)
		res.Bound = bound
		return nil
	}

	finish := func() *BroadcastResult {
		res.Nodes = make([]graph.NodeID, 0, len(reached))
		for v := range reached {
			res.Nodes = append(res.Nodes, v)
		}
		sort.Slice(res.Nodes, func(i, j int) bool { return res.Nodes[i] < res.Nodes[j] })
		res.Reached = len(res.Nodes)
		return res
	}

	maxBound := r.maxBound()
	for bound := 0; ; {
		bound = nextBound(bound, r.cfg.GrowthFactor, maxBound, r.cfg.KnownN)
		if err := runRound(bound); err != nil {
			return res, err
		}
		if r.cfg.KnownN > 0 {
			return finish(), nil
		}
		covered, err := r.covered(start, bound)
		if err != nil {
			return res, err
		}
		res.Rounds[len(res.Rounds)-1].Covered = covered
		if covered {
			return finish(), nil
		}
		if bound >= maxBound {
			return res, fmt.Errorf("%w: bound %d", ErrSequenceExhausted, bound)
		}
	}
}

// flatBroadcastRound runs one broadcast round on the compiled flat walker:
// the full forward exploration with dense visit marking instead of the
// reference's per-hop trace callback, then the backtracking confirmation.
// Statistics fold into res exactly as the reference round's do, and the
// visited set merges into reached through the gadget projection.
func (r *Router) flatBroadcastRound(start, s graph.NodeID, fs flatgraph.Seq, bound int, res *BroadcastResult, reached map[graph.NodeID]bool) error {
	si, ok := r.flat.Index(start)
	if !ok {
		return fmt.Errorf("route: %w: %d", graph.ErrNodeNotFound, start)
	}
	visited := make([]bool, r.flat.NumNodes())
	out, err := r.flat.BroadcastWalk(si, s, fs, visited)
	res.Hops += out.Hops
	hb := netsim.Header{Src: s, Dir: netsim.Forward, Index: out.MaxIndex}.Bits()
	if hb > res.MaxHeaderBits {
		res.MaxHeaderBits = hb
	}
	if out.PeakMemoryBits > res.PeakMemoryBits {
		res.PeakMemoryBits = out.PeakMemoryBits
	}
	if err != nil {
		return fmt.Errorf("route: flat broadcast: %w", err)
	}
	for i, v := range visited {
		if v {
			reached[r.flat.OriginalOf(int32(i))] = true
		}
	}
	res.Rounds = append(res.Rounds, RoundStat{
		Bound: bound, SeqLen: fs.Length, Hops: out.Hops, Outcome: netsim.StatusSuccess,
	})
	res.Bound = bound
	return nil
}

// broadcastHandler walks the full sequence forward (delivering the payload
// at every visited node as a side effect of the visit itself) and
// backtracks the completion confirmation to s.
type broadcastHandler struct {
	seq        ues.Sequence
	originalOf func(graph.NodeID) graph.NodeID
}

// OnMessage mirrors routeHandler without the destination check.
func (bh *broadcastHandler) OnMessage(self graph.NodeID, inPort, degree int, h *netsim.Header, mem *netsim.Memory) (netsim.Decision, error) {
	selfOrig := bh.originalOf(self)
	if err := charge(mem, int64(self), int64(selfOrig), int64(inPort), int64(degree), h.Index); err != nil {
		return netsim.Decision{}, err
	}
	if h.Dir == netsim.Backward {
		if selfOrig == h.Src {
			return netsim.Decision{Kind: netsim.Deliver}, nil
		}
		t := bh.seq.At(int(h.Index))
		if err := charge(mem, int64(t)); err != nil {
			return netsim.Decision{}, err
		}
		out := ues.PrevPort(degree, inPort, t)
		h.Index--
		return netsim.Decision{Kind: netsim.Send, OutPort: out}, nil
	}
	if int(h.Index) > bh.seq.Len() {
		h.Dir = netsim.Backward
		h.Status = netsim.StatusSuccess
		h.Index--
		return netsim.Decision{Kind: netsim.Send, OutPort: inPort}, nil
	}
	t := bh.seq.At(int(h.Index))
	if err := charge(mem, int64(t)); err != nil {
		return netsim.Decision{}, err
	}
	out := ues.NextPort(degree, inPort, t)
	h.Index++
	return netsim.Decision{Kind: netsim.Send, OutPort: out}, nil
}
