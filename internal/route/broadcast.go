package route

import (
	"context"
	"fmt"

	"repro/internal/graph"
	"repro/internal/netsim"
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
// component (the paper's broadcasting problem). It is Algorithm Route
// without a destination: a Walker searches for a name no node carries,
// so every round walks T_bound to its end, delivering the payload
// at every node it visits, and backtracks the confirmation to s; the §4
// closure check stops the doubling schedule once the walk provably covered
// the component, and its visited set is the reached set. A promised bound
// (KnownN) runs no closure check, so its one round is replayed locally.
func (r *Router) Broadcast(s graph.NodeID) (*BroadcastResult, error) {
	if !r.orig.HasNode(s) {
		return nil, fmt.Errorf("route: source: %w: %d", graph.ErrNodeNotFound, s)
	}
	if r.cfg.Confirm != ConfirmBacktrack {
		br := *r
		br.cfg.Confirm = ConfirmBacktrack
		r = &br
	}
	nowhere := graph.NodeID(-1)
	for r.orig.HasNode(nowhere) {
		nowhere--
	}
	// Walking directly skips the certificate check, which would answer a
	// name outside the graph without a walk.
	w := &Walker{r: r, cur: Cursor{Src: s, Dst: nowhere}, res: &Result{}}
	res, err := w.walk(context.Background(), 0, nil)
	if res == nil {
		return nil, err
	}
	out := &BroadcastResult{Hops: res.Hops, Rounds: res.Rounds, Bound: res.Bound, PeakMemoryBits: res.PeakMemoryBits}
	for i := range out.Rounds {
		if out.Rounds[i].Outcome == netsim.StatusFailure {
			out.Rounds[i].Outcome = netsim.StatusSuccess // the walk ran to its end and s heard back
		}
	}
	// A broadcast header names no destination, and the terminal round's
	// turnaround carries the largest index, L+1.
	last := out.Rounds[len(out.Rounds)-1]
	out.MaxHeaderBits = netsim.Header{Src: s, Dir: netsim.Forward, Index: int64(last.SeqLen) + 1}.Bits()
	if err != nil {
		return out, err
	}
	cover := w.cover
	if r.cfg.KnownN > 0 {
		if cover, err = r.Cover(s, res.Bound, false); err != nil {
			return out, err
		}
	}
	out.Nodes = cover.Originals()
	out.Reached = len(out.Nodes)
	return out, nil
}
