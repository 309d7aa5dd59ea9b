package degred

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/flatgraph"
	"repro/internal/graph"
)

// Incremental reduction. A batch of journaled edge mutations touches a
// bounded set of original nodes — exactly the delta endpoints, because edge
// insertion appends ports and edge removal swap-compacts ports only at the
// removed edge's two endpoints. Gadget shape is a pure local function of
// degree, so only the touched originals need re-gadgeting; every other
// original keeps its gadget nodes, their IDs, and their port wiring, and
// the snapshot is rebuilt by flatgraph.Patch from the old one plus
// O(diff) row rewrites. The result is port-preservingly isomorphic to a
// fresh Reduce of the mutated graph, so walks, verdicts, hop counts, and
// header bits are identical on either compile path.

var (
	// ErrDeltaTooLarge means the touched set exceeds the fraction of the
	// graph below which patching beats recompiling; callers fall back to a
	// full Reduce.
	ErrDeltaTooLarge = errors.New("degred: delta touches too much of the graph")
	// ErrDeltaUnusable means the delta cannot be interpreted against this
	// base (an unknown node or edge endpoint); callers fall back to a full
	// Reduce.
	ErrDeltaUnusable = errors.New("degred: delta not applicable to this base")
)

// deltaMaxFraction: fall back to a full rebuild when more than 1/4 of the
// originals were touched — past that, re-gadgeting plus patching costs a
// comparable number of row writes to a fresh compile and the bookkeeping
// stops paying for itself.
const deltaMaxFraction = 4

// ApplyDelta builds the reduction of cur, the graph obtained from this
// reduction's base by applying the journaled deltas, re-gadgeting only the
// touched originals. cur must already be in its post-mutation state and
// must have the same node set as the base (node insertions and removals
// poison the journal upstream). The receiver is not modified — concurrent
// walkers holding its snapshot are undisturbed — and the returned Reduced
// is born with its snapshot attached. The snapshot labels its
// components on the first Components call, exactly as a full compile's
// does, so a recompile no route starts on never pays for the labelling.
//
// On ErrDeltaTooLarge or ErrDeltaUnusable the caller should fall back to
// Reduce(cur).
func (r *Reduced) ApplyDelta(cur *graph.Graph, deltas []graph.Delta) (*Reduced, error) {
	if len(deltas) == 0 {
		return r, nil // no topology change: the base is already current
	}
	flat := r.flat
	numOrig := len(r.origIDs)

	// Touched originals: the delta endpoints, as dense indices.
	touchedSet := make(map[int32]bool, 2*len(deltas))
	for _, d := range deltas {
		for _, v := range [2]graph.NodeID{d.U, d.V} {
			ix, ok := r.origIdx[v]
			if !ok {
				return nil, fmt.Errorf("%w: delta names unknown node %d", ErrDeltaUnusable, v)
			}
			touchedSet[ix] = true
		}
	}
	if deltaMaxFraction*len(touchedSet) > numOrig {
		return nil, fmt.Errorf("%w: %d of %d originals", ErrDeltaTooLarge, len(touchedSet), numOrig)
	}
	touched := make([]int32, 0, len(touchedSet))
	for ix := range touchedSet {
		touched = append(touched, ix)
	}
	sort.Slice(touched, func(i, j int) bool { return touched[i] < touched[j] })
	for _, ix := range touched {
		if cur.Degree(r.origIDs[ix]) < 0 {
			return nil, fmt.Errorf("%w: node %d absent from current graph", ErrDeltaUnusable, r.origIDs[ix])
		}
	}

	// Gadget ID management: free the old slots of every touched original,
	// then allocate new slots from the freed pool (ascending) before minting
	// fresh IDs, so the ID universe stays exactly {0..nNew-1}. If the graph
	// shrank, surviving gadgets stranded above nNew are relocated down into
	// leftover holes; identity dense numbering is an invariant of every
	// generation, which keeps Patch trivial and node-ID metering bounded.
	nOld := flat.NumNodes()
	var freed []int32
	need := 0
	for _, ix := range touched {
		for _, gid := range r.slots[ix] {
			freed = append(freed, int32(gid))
		}
		need += gadgetSize(cur.Degree(r.origIDs[ix]))
	}
	sort.Slice(freed, func(i, j int) bool { return freed[i] < freed[j] })
	nNew := nOld - len(freed) + need

	alloc := 0
	nextFresh := int32(nOld)
	newSlots := make(map[int32][]graph.NodeID, len(touched))
	for _, ix := range touched {
		sz := gadgetSize(cur.Degree(r.origIDs[ix]))
		s := make([]graph.NodeID, sz)
		for k := range s {
			if alloc < len(freed) {
				s[k] = graph.NodeID(freed[alloc])
				alloc++
			} else {
				s[k] = graph.NodeID(nextFresh)
				nextFresh++
			}
		}
		newSlots[ix] = s
	}
	holes := freed[alloc:] // unused freed IDs, ascending

	reloc := make(map[int32]int32)
	if nNew < nOld {
		holeSet := make(map[int32]bool, len(holes))
		for _, h := range holes {
			holeSet[h] = true
		}
		var low, liveHigh []int32
		for _, h := range holes {
			if int(h) < nNew {
				low = append(low, h)
			}
		}
		for id := int32(nNew); id < int32(nOld); id++ {
			if !holeSet[id] {
				liveHigh = append(liveHigh, id)
			}
		}
		if len(low) != len(liveHigh) {
			return nil, fmt.Errorf("degred: internal: %d holes for %d stranded gadgets", len(low), len(liveHigh))
		}
		for i, id := range liveHigh {
			reloc[id] = low[i]
		}
	}
	mapID := func(id int32) int32 {
		if n, ok := reloc[id]; ok {
			return n
		}
		return id
	}
	relocOld := make([]int32, 0, len(reloc))
	for id := range reloc {
		relocOld = append(relocOld, id)
	}
	sort.Slice(relocOld, func(i, j int) bool { return relocOld[i] < relocOld[j] })

	// Assemble the patch. rowBuf holds whole rows being rewritten (new
	// gadgets and relocated survivors); halfWrites fixes single halves at
	// untouched rows whose far end moved.
	rowBuf := make(map[int32]*[3]flatgraph.Half32, len(reloc)+need)
	var halfWrites []flatgraph.HalfWrite
	for _, oldID := range relocOld {
		var row [3]flatgraph.Half32
		for p := int32(0); p < 3; p++ {
			h := flat.Half(oldID, p)
			row[p] = flatgraph.Half32{To: mapID(h.To), Port: h.Port}
		}
		rowBuf[reloc[oldID]] = &row
	}
	for _, ix := range touched {
		for _, gid := range newSlots[ix] {
			rowBuf[int32(gid)] = &[3]flatgraph.Half32{}
		}
	}
	setHalf := func(node, port int32, h flatgraph.Half32) {
		if buf, ok := rowBuf[node]; ok {
			buf[port] = h
		} else {
			halfWrites = append(halfWrites, flatgraph.HalfWrite{Node: node, Port: port, H: h})
		}
	}

	// Back-pointers into relocated gadgets: every half that pointed at an
	// old ID must point at the new one. Far ends owned by touched originals
	// are skipped — their rows are rewritten wholesale below.
	for _, oldID := range relocOld {
		newID := reloc[oldID]
		for p := int32(0); p < 3; p++ {
			h := flat.Half(oldID, p)
			if touchedSet[r.origIx[h.To]] {
				continue
			}
			setHalf(mapID(h.To), h.Port, flatgraph.Half32{To: newID, Port: p})
		}
	}

	// Re-gadget each touched original through the same wiring as Reduce, so
	// a delta compile and a full compile are port-identical gadget by gadget.
	for _, ix := range touched {
		wire(newSlots[ix], cur.Degree(r.origIDs[ix]), setHalf)
	}

	// Original edges incident to touched nodes: rewrite both directions at
	// port 2 (the original-edge port of every non-theta gadget node). This
	// also repairs untouched neighbours whose half content went stale when
	// a touched endpoint's ports were compacted.
	slotOf := func(v graph.NodeID, p int) int32 {
		ix := r.origIdx[v]
		if touchedSet[ix] {
			s := newSlots[ix]
			return int32(s[p%len(s)])
		}
		s := r.slots[ix]
		return mapID(int32(s[p%len(s)]))
	}
	for _, ix := range touched {
		v := r.origIDs[ix]
		d := cur.Degree(v)
		for p := 0; p < d; p++ {
			h, err := cur.Neighbor(v, p)
			if err != nil {
				return nil, fmt.Errorf("%w: %v", ErrDeltaUnusable, err)
			}
			if _, ok := r.origIdx[h.To]; !ok {
				return nil, fmt.Errorf("%w: edge to unknown node %d", ErrDeltaUnusable, h.To)
			}
			gv := slotOf(v, p)
			gw := slotOf(h.To, h.ToPort)
			setHalf(gv, 2, flatgraph.Half32{To: gw, Port: 2})
			setHalf(gw, 2, flatgraph.Half32{To: gv, Port: 2})
		}
	}

	// New projection arrays: prefix copy, then patch relocated and
	// re-gadgeted entries.
	origArr := make([]graph.NodeID, nNew)
	origIx := make([]int32, nNew)
	pfx := nOld
	if nNew < pfx {
		pfx = nNew
	}
	copy(origArr, r.orig[:pfx])
	copy(origIx, r.origIx[:pfx])
	for _, oldID := range relocOld {
		newID := reloc[oldID]
		origArr[newID] = r.orig[oldID]
		origIx[newID] = r.origIx[oldID]
	}
	for _, ix := range touched {
		for _, gid := range newSlots[ix] {
			origArr[gid] = r.origIDs[ix]
			origIx[gid] = ix
		}
	}

	rows := make([]flatgraph.RowWrite, 0, len(rowBuf))
	for id, buf := range rowBuf {
		rows = append(rows, flatgraph.RowWrite{Node: id, Halves: *buf})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Node < rows[j].Node })
	nf, err := flat.Patch(flatgraph.PatchSpec{
		NumNodes: nNew,
		Orig:     origArr,
		Rows:     rows,
		Halves:   halfWrites,
	})
	if err != nil {
		return nil, fmt.Errorf("degred: patch: %w", err)
	}

	nr := &Reduced{
		orig:    origArr,
		origIx:  origIx,
		slots:   make([][]graph.NodeID, numOrig),
		origIDs: r.origIDs,
		origIdx: r.origIdx,
		flat:    nf,
	}
	copy(nr.slots, r.slots)
	for _, ix := range touched {
		nr.slots[ix] = newSlots[ix]
	}
	cloned := make(map[int32]bool)
	for _, oldID := range relocOld {
		ix := r.origIx[oldID]
		if !cloned[ix] {
			s := make([]graph.NodeID, len(nr.slots[ix]))
			copy(s, nr.slots[ix])
			nr.slots[ix] = s
			cloned[ix] = true
		}
		for j, gid := range nr.slots[ix] {
			if gid == graph.NodeID(oldID) {
				nr.slots[ix][j] = graph.NodeID(reloc[oldID])
				break
			}
		}
	}
	return nr, nil
}
