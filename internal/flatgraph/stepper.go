package flatgraph

import (
	"fmt"
	"math"

	"repro/internal/graph"
)

// RouteStepper is one route round in flight: the resumable form of
// RouteWalk. Its entire state is the paper's (position, header) pair plus
// the round's metering, so a round can stop after any hop and continue
// later — in the next segment of the same request, in a later request from
// a resume cursor, or on a freshly compiled snapshot. Run advances it by
// hop segments with RouteWalk's block prefetch and memory metering; Step
// advances it by one handler activation, matching netsim.Stepper's
// granularity exactly (each activation performs one hop unless it is
// terminal), so step-interleaved compositions charge identical step counts
// on either execution path.
type RouteStepper struct {
	f        *Graph
	seq      Seq
	src, dst graph.NodeID
	node     int32
	inPort   int32
	index    int64
	backward bool
	success  bool
	done     bool
	hops     int64
	err      error

	// The metering replica of the reference engine: the per-activation
	// memory peak, the largest header index of a forward activation, and
	// the index at backward delivery.
	peak      int
	maxIndex  int64
	delivered int64
	sink      HopSink

	// dirs holds the prefetched symbols T[dirBase, dirBase+dirLen), shared
	// by every segment and step of the round.
	dirs    [dirBlock]int8
	dirBase int64
	dirLen  int64
}

// HopSink receives one notification per hop: the original-graph node the
// message stands at after the hop, the header index as it leaves that
// activation, and the walk direction. Called inline from the hop loop —
// keep it allocation-free.
type HopSink func(node graph.NodeID, index int64, backward bool)

// Instrument attaches a hop sink (nil detaches it).
func (st *RouteStepper) Instrument(sink HopSink) { st.sink = sink }

// Reset re-arms st as a round of f standing at (node, inPort) with the
// given header state — the index into the sequence, the direction, and the
// verdict so far — and fresh metering. This is the resumption the paper's
// obliviousness argument licenses: a walk's entire state is (position,
// header), so a round picks up wherever the message happens to stand, on
// the snapshot it was minted on or (re-entering at the canonical gadget of
// the message's original node, in-port 0) on a recompiled one.
func (st *RouteStepper) Reset(f *Graph, node, inPort int32, src, dst graph.NodeID, seq Seq, index int64, backward, success bool) error {
	if !f.regular3 || seq.Base != 3 {
		return ErrNotRegular
	}
	if node < 0 || int(node) >= f.NumNodes() {
		return fmt.Errorf("flatgraph: resume at node %d outside [0,%d)", node, f.NumNodes())
	}
	if inPort < 0 || inPort > 2 {
		return fmt.Errorf("flatgraph: resume with in-port %d outside [0,3)", inPort)
	}
	*st = RouteStepper{
		f: f, seq: seq, src: src, dst: dst,
		node: node, inPort: inPort, index: index,
		backward: backward, success: success,
	}
	return nil
}

// Step performs one activation (and its hop, if any). It returns true once
// the round has terminated: delivered with a verdict, or failed with Err.
func (st *RouteStepper) Step() bool { return st.Run(1) }

// Run performs activations until the round terminates or limit more hops
// have been made (limit < 0: no limit), and reports whether the round has
// terminated. It never starts an activation past the limit, so a round
// stopped there continues with exactly the activation it would have
// performed next. The activation charges mirror the reference engine's
// route.charge: every activation carries memw + inPort + 4 +
// wordBits(index); stepping activations add the direction register t+1;
// terminal activations charge the base only.
func (st *RouteStepper) Run(limit int64) bool {
	if st.done {
		return true
	}
	stop := int64(math.MaxInt64)
	if limit >= 0 {
		stop = st.hops + limit
	}
	var (
		f      = st.f
		seq    = st.seq
		src    = st.src
		dst    = st.dst
		sink   = st.sink
		dirs   = &st.dirs
		node   = st.node
		inPort = st.inPort
		i      = st.index
		hops   = st.hops
		peak   = st.peak
		base   = st.dirBase
		blen   = st.dirLen
	)
	if !st.backward {
		L := int64(seq.Length)
		for {
			if hops >= stop {
				st.maxIndex = max(st.maxIndex, i-1)
				st.park(node, inPort, i, hops, peak, base, blen)
				return false
			}
			act := int(f.memw[node]) + int(inPort) + 4 + wordBits(i)
			if found := f.orig[node] == dst; found || i > L {
				// Turnaround: the terminal forward activation bounces the
				// message back through its arrival port with the index
				// pointing at the step to undo.
				if act > peak {
					peak = act
				}
				st.maxIndex = max(st.maxIndex, i)
				st.backward, st.success = true, found
				i--
				h := f.halves[node*3+inPort]
				node, inPort = h.To, h.Port
				hops++
				if sink != nil {
					sink(f.orig[node], i, true)
				}
				break
			}
			if i >= base+blen {
				base, blen = i, min(dirBlock, L-i+1)
				seq.Fill(dirs[:blen], base)
			}
			t := int32(dirs[i-base])
			if s := act + int(t) + 1; s > peak {
				peak = s
			}
			exit := inPort + t
			if exit >= 3 {
				exit -= 3
			}
			h := f.halves[node*3+exit]
			node, inPort = h.To, h.Port
			i++
			hops++
			if sink != nil {
				sink(f.orig[node], i, false)
			}
		}
	}
	// Backward phase: undo steps until any node simulating src is reached.
	for {
		if hops >= stop {
			st.park(node, inPort, i, hops, peak, base, blen)
			return false
		}
		act := int(f.memw[node]) + int(inPort) + 4 + wordBits(i)
		if f.orig[node] == src {
			if act > peak {
				peak = act
			}
			st.delivered, st.done = i, true
			st.park(node, inPort, i, hops, peak, base, blen)
			return true
		}
		if i < 1 {
			st.err, st.done = ErrUnwound, true
			st.park(node, inPort, i, hops, peak, base, blen)
			return true
		}
		if i < base || i >= base+blen {
			base = max(1, i-dirBlock+1)
			blen = i - base + 1
			seq.Fill(dirs[:blen], base)
		}
		t := int32(dirs[i-base])
		if s := act + int(t) + 1; s > peak {
			peak = s
		}
		exit := inPort - t
		if exit < 0 {
			exit += 3
		}
		h := f.halves[node*3+exit]
		node, inPort = h.To, h.Port
		i--
		hops++
		if sink != nil {
			sink(f.orig[node], i, true)
		}
	}
}

// park stores Run's register copies back into the stepper.
func (st *RouteStepper) park(node, inPort int32, index, hops int64, peak int, base, blen int64) {
	st.node, st.inPort, st.index, st.hops, st.peak = node, inPort, index, hops, peak
	st.dirBase, st.dirLen = base, blen
}

// Outcome reports the round's RouteWalk statistics so far; once the round
// has terminated with a nil Err they are exactly RouteWalk's.
func (st *RouteStepper) Outcome() RouteOutcome {
	return RouteOutcome{
		Success:        st.success,
		Hops:           st.hops,
		DeliveredIndex: st.delivered,
		MaxIndex:       st.maxIndex,
		PeakMemoryBits: st.peak,
	}
}

// Success reports the verdict: true if the forward walk reached the
// destination (valid once Done with a nil Err).
func (st *RouteStepper) Success() bool { return st.success }

// Hops returns the edge traversals performed so far.
func (st *RouteStepper) Hops() int64 { return st.hops }

// Err returns the terminal error, if any.
func (st *RouteStepper) Err() error { return st.err }

// Position returns the current dense node and arrival port.
func (st *RouteStepper) Position() (node, inPort int32) { return st.node, st.inPort }

// Index returns the current header index.
func (st *RouteStepper) Index() int64 { return st.index }

// Backward reports whether the walk has turned around.
func (st *RouteStepper) Backward() bool { return st.backward }
