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
// on either execution path; Rewind moves it back along its own walk. A
// forward walk that runs out of sequence records where it turned around
// (Turn): a later round whose sequence extends this one retraces the walk
// up to there, so package route starts it there instead of at the source.
// The forward walk also records its last visit to a gadget of src, where
// the backward walk will deliver, so Run can take the whole backward walk
// in one move at the turnaround (§2) instead of retracing it hop by hop.
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
	unwound  bool // terminated with ErrUnwound
	// turn is the half-edge slot (node*3+inPort) where the forward walk
	// ran out of sequence, plus 1; 0 when it has not.
	turn int32
	hops int64

	// rec is the record of the forward walk's last stepping activation at
	// a gadget of src: the half-edge slot node*3+exit plus 1 (0: none),
	// the index there, and the largest charge the backward walk meters
	// from the turnaround down to it. Past the turnaround it stays set
	// only when Run moved the stepper straight onto it.
	rec      int32
	recPeak  int32
	recIndex int64

	// The metering replica of the reference engine: the per-activation
	// memory peak and the largest header index of a forward activation.
	peak     int
	maxIndex int64

	// dirs holds the prefetched symbols T[dirBase, dirBase+dirLen), shared
	// by every segment and step of the round.
	dirs    [dirBlock]int8
	dirBase int64
	dirLen  int64
}

// HopSink receives one hop of a walk as the state the hop left the walk
// in: the original-graph node the message stood at after the hop, the
// header index it carried there, and the walk direction. Rewind calls it
// inline — keep it allocation-free.
type HopSink func(node graph.NodeID, index int64, backward bool)

// Reset re-arms st as a round of f standing at (node, inPort) with the
// given header state — the index into the sequence, the direction, and the
// verdict so far — and fresh metering. This is the resumption the paper's
// obliviousness argument licenses: a walk's entire state is (position,
// header), so a round picks up wherever the message happens to stand, on
// the snapshot it was minted on or (re-entering at the canonical gadget of
// the message's original node, in-port 0) on a recompiled one.
func (st *RouteStepper) Reset(f *Graph, node, inPort int32, src, dst graph.NodeID, seq Seq, index int64, backward, success bool) error {
	if seq.Base != 3 {
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
//
// The backward walk undoes the forward walk step by step (§2) until it
// reaches a gadget of src, so it ends at the forward walk's last visit to
// one, and at forward index k it charges the forward activation's charge
// with the exit port in place of the arrival port. The forward loop keeps
// that record; at the turnaround, when it exists and the limit covers the
// backward hops with room to spare, Run moves the stepper straight to the
// delivered state with the hops and peak the walk back would have
// produced. Otherwise it walks back hop by hop. A walk back that the limit
// ends exactly at the record parks there undone, as it always has, so Step
// never takes the shortcut.
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
		// The record's slot and index change only at gadgets of src, so
		// they stay in the stepper; the backward peak, which moves every
		// hop, gets a register.
		recPeak := int(st.recPeak)
		for {
			if hops >= stop {
				st.maxIndex = max(st.maxIndex, i-1)
				st.recPeak = int32(recPeak)
				st.park(node, inPort, i, hops, peak, base, blen)
				return false
			}
			act := int(f.memw[node]) + int(inPort) + 4 + wordBits(i)
			o := f.orig[node]
			if found := o == dst; found || i > L {
				// Turnaround: the terminal forward activation bounces the
				// message back through its arrival port with the index
				// pointing at the step to undo.
				if act > peak {
					peak = act
				}
				st.maxIndex = max(st.maxIndex, i)
				st.backward, st.success = true, found
				if !found {
					st.turn = node*3 + inPort + 1
				}
				if rec, back := st.rec, i-st.recIndex; rec != 0 && hops+back < stop {
					// The walk back would deliver on the record, back hops on.
					st.done = true
					st.park((rec-1)/3, (rec-1)%3, st.recIndex, hops+back, max(peak, recPeak), base, blen)
					return true
				}
				st.rec = 0
				i--
				node, inPort = unpack(f.halves[node*3+inPort])
				hops++
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
			// The backward activation at this index charges act with exit in
			// place of inPort: terminal at a gadget of src, stepping
			// elsewhere.
			if o == src {
				st.rec, st.recIndex, recPeak = node*3+exit+1, i, act-int(inPort)+int(exit)
			} else {
				recPeak = max(recPeak, act-int(inPort)+int(exit)+int(t)+1)
			}
			node, inPort = unpack(f.halves[node*3+exit])
			i++
			hops++
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
			st.done = true
			st.park(node, inPort, i, hops, peak, base, blen)
			return true
		}
		if i < 1 {
			st.unwound, st.done = true, true
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
		node, inPort = unpack(f.halves[node*3+exit])
		i--
		hops++
	}
}

// Inherit hands a stepper armed at a forward position the record of the
// walk that led there: its last forward visit to a gadget of src left
// that gadget through port exit with the given index. A round that starts
// at the last round's turnaround inherits the record that round delivered
// at, so Run can still take its backward walk in one move. The record's
// backward peak starts at zero: the last round metered those backward
// activations already, and the walk's peak is the largest over its rounds.
func (st *RouteStepper) Inherit(node, exit int32, index int64) {
	st.rec, st.recIndex, st.recPeak = node*3+exit+1, index, 0
}

// Rewind moves the stepper n hops back along its own walk, handing sink
// each hop it passes back over, newest first, so a caller that kept only
// the stepper can report a walk's last hops. Exploration sequences are
// reversible (§2, prev_v): the arrival half-edge leads back to where the
// hop left from, and the symbol the hop consumed gives the port it
// arrived on there. The turnaround is the backward state whose index is
// one below the round's largest forward index. Run(n) after Rewind(n)
// walks the same n hops again; a backward walk Run took in one move
// rewinds like a walked one. It may go back past the position the stepper
// was armed at, but only along the round's forward walk, which the
// sequence alone determines. Metering peaks are kept; a terminated round
// is no longer done, its error is cleared, and the record of its last
// visit to src is dropped.
func (st *RouteStepper) Rewind(n int64, sink HopSink) {
	f, seq := st.f, st.seq
	node, inPort, i := st.node, st.inPort, st.index
	for range n {
		sink(f.orig[node], i, st.backward)
		h := f.Half(node, inPort)
		node = h.To
		switch {
		case !st.backward:
			i--
			inPort = (h.Port + 3 - int32(seq.At(int(i)))) % 3
		case i+1 == st.maxIndex:
			i++
			inPort = h.Port
			st.backward, st.success, st.turn = false, false, 0
		default:
			i++
			inPort = (h.Port + int32(seq.At(int(i)))) % 3
		}
	}
	st.node, st.inPort, st.index, st.hops = node, inPort, i, st.hops-n
	// Run's forward loop assumes the index never drops below the prefetch.
	st.done, st.unwound, st.rec, st.dirBase, st.dirLen = false, false, 0, 0, 0
}

// park stores Run's register copies back into the stepper.
func (st *RouteStepper) park(node, inPort int32, index, hops int64, peak int, base, blen int64) {
	st.node, st.inPort, st.index, st.hops, st.peak = node, inPort, index, hops, peak
	st.dirBase, st.dirLen = base, blen
}

// Outcome reports the round's RouteWalk statistics so far; once the round
// has terminated with a nil Err they are exactly RouteWalk's.
func (st *RouteStepper) Outcome() RouteOutcome {
	out := RouteOutcome{
		Success:        st.success,
		Hops:           st.hops,
		MaxIndex:       st.maxIndex,
		PeakMemoryBits: st.peak,
	}
	if st.done && !st.unwound {
		out.DeliveredIndex = st.index
	}
	return out
}

// Computed returns the backward hops Run took in one move at the
// turnaround instead of walking them: the turnaround's index minus the
// delivered one, or 0 if the round walked back or has not delivered.
func (st *RouteStepper) Computed() int64 {
	if !st.done || st.rec == 0 {
		return 0
	}
	return st.maxIndex - st.index
}

// Success reports the verdict: true if the forward walk reached the
// destination (valid once Done with a nil Err).
func (st *RouteStepper) Success() bool { return st.success }

// Hops returns the edge traversals performed so far.
func (st *RouteStepper) Hops() int64 { return st.hops }

// Err returns the terminal error, if any.
func (st *RouteStepper) Err() error {
	if st.unwound {
		return ErrUnwound
	}
	return nil
}

// Position returns the current dense node and arrival port.
func (st *RouteStepper) Position() (node, inPort int32) { return st.node, st.inPort }

// Index returns the current header index.
func (st *RouteStepper) Index() int64 { return st.index }

// Backward reports whether the walk has turned around.
func (st *RouteStepper) Backward() bool { return st.backward }

// Turn reports the position (dense node, arrival port) at which the forward
// walk ran out of sequence — where the message stood, carrying index
// Length+1, when it turned around with a failure. ok is false when the
// walk this stepper ran found the destination or has not turned around.
func (st *RouteStepper) Turn() (node, inPort int32, ok bool) {
	if st.turn == 0 {
		return 0, 0, false
	}
	return (st.turn - 1) / 3, (st.turn - 1) % 3, true
}
