package flatgraph

import (
	"errors"
	"math/bits"

	"repro/internal/graph"
)

// Errors reported by the walkers. Both indicate misuse or an internal
// invariant violation, never a routing outcome — all bounds the hop loop
// relies on are validated before it starts.
var (
	// ErrNotRegular means a walk was requested with a sequence whose
	// alphabet is not base 3. Every snapshot is 3-regular, and the flat
	// loops step mod 3 without a branch on the direction's range, so a
	// symbol of 3 or more would leave through a port that does not exist.
	ErrNotRegular = errors.New("flatgraph: walk requires a base-3 sequence")
	// ErrUnwound is the defensive guard on the backward loop: the reversed
	// walk consumed its whole index budget without reaching a node of the
	// source — impossible for a well-formed reduction, since the unwind
	// terminates at the start position at the latest.
	ErrUnwound = errors.New("flatgraph: backward walk unwound past the origin")
)

// dirBlock is the direction-prefetch block size: walkers derive this many
// sequence symbols at a time into a stack buffer, amortizing the PRF oracle
// across hops instead of calling it mid-loop.
const dirBlock = 128

// Memory-metering replica. The reference engine charges every handler
// activation for its working registers (route.charge): each of self,
// selfOrig, inPort, degree, and the header index always, plus the direction
// t on stepping activations, at bits.Len64(|v|)+1 bits per register. The
// flat walkers reproduce those sums exactly so the PeakMemoryBits they
// report is bit-for-bit the reference's. On the 3-regular walk the small
// registers collapse to constants: w(deg=3) = 3, w(inPort) = inPort+1 and
// w(t) = t+1 for values in {0,1,2}.

// wordBits is route.charge's per-register accounting: value width plus a
// sign bit.
func wordBits(v int64) int {
	if v < 0 {
		v = -v
	}
	return bits.Len64(uint64(v)) + 1
}

// RouteOutcome reports one completed flat route round, carrying exactly the
// statistics the reference round reports.
type RouteOutcome struct {
	// Success is the verdict: true if the walk reached (a gadget node of)
	// the destination, false if it exhausted the sequence.
	Success bool
	// Hops is the total edge traversals, forward and backward.
	Hops int64
	// DeliveredIndex is the header index at backward delivery — the input
	// to the reference's forward-steps reconstruction.
	DeliveredIndex int64
	// MaxIndex is the largest header index any activation observed, from
	// which the caller derives the reference's MaxHeaderBits.
	MaxIndex int64
	// PeakMemoryBits replicates the reference's per-activation memory
	// metering peak.
	PeakMemoryBits int
}

// RouteWalk runs one full round of Algorithm Route (§3) on the snapshot:
// the forward exploration from the start node's port-0 edge until the
// destination is found or seq is exhausted, then the reversed walk carrying
// the verdict back to the first node simulating src. It is the compiled
// equivalent of the netsim token engine driving route's handler — same
// positions, same hop counts, same verdict, same metering — with no
// allocations and no per-hop error paths: one unbounded RouteStepper.Run,
// which computes the reversed walk at the turnaround instead of walking it.
func (f *Graph) RouteWalk(start int32, src, dst graph.NodeID, seq Seq) (RouteOutcome, error) {
	var st RouteStepper
	if err := st.Reset(f, start, 0, src, dst, seq, 1, false, false); err != nil {
		return RouteOutcome{}, err
	}
	st.Run(-1)
	return st.Outcome(), st.Err()
}

// CoverWalk walks seq from (start, port 0) to its end, marking every
// visited node in the dense visited set (length NumNodes). If order is
// non-nil, dense indices are appended in first-visit order (starting with
// start) and the grown slice is returned; a nil order records nothing.
// This is the local simulation behind route.Cover — the §4 closure check
// and the counting walks — with no metering and no messages.
func (f *Graph) CoverWalk(start int32, seq Seq, visited []bool, order []int32) ([]int32, error) {
	if seq.Base != 3 {
		return order, ErrNotRegular
	}
	var dirs [dirBlock]int8
	node, inPort := start, int32(0)
	visited[node] = true
	if order != nil {
		order = append(order, node)
	}
	L := int64(seq.Length)
	for i := int64(1); i <= L; {
		bLen := int64(dirBlock)
		if rem := L - i + 1; rem < bLen {
			bLen = rem
		}
		seq.Fill(dirs[:bLen], i)
		for k := int64(0); k < bLen; k++ {
			t := int32(dirs[k])
			exit := inPort + t
			if exit >= 3 {
				exit -= 3
			}
			node, inPort = unpack(f.halves[node*3+exit])
			if !visited[node] {
				visited[node] = true
				if order != nil {
					order = append(order, node)
				}
			}
		}
		i += bLen
	}
	return order, nil
}
