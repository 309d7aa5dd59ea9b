package degred

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/flatgraph"
	"repro/internal/graph"
)

// Incremental reduction. A batch of journaled edge mutations touches a
// bounded set of original nodes — exactly the delta endpoints, because edge
// insertion appends ports and edge removal swap-compacts ports only at the
// removed edge's two endpoints. Gadget shape is a pure local function of
// degree, so only the touched originals need re-gadgeting; every other
// original keeps its gadget nodes, their IDs, and their port wiring. The
// next generation is a copy of the old port table and projection (O(n)
// memcpy) edited in place by O(diff) row writes through the same wire
// Reduce uses, then wrapped by flatgraph.New. The result is
// port-preservingly isomorphic to a fresh Reduce of the mutated graph, so
// walks, verdicts, hop counts, and header bits are identical on either
// compile path.

var (
	// ErrDeltaTooLarge means the touched set exceeds the fraction of the
	// graph below which a delta compile beats recompiling; callers fall
	// back to a full Reduce.
	ErrDeltaTooLarge = errors.New("degred: delta touches too much of the graph")
	// ErrDeltaUnusable means the delta cannot be interpreted against this
	// base (an unknown node or edge endpoint); callers fall back to a full
	// Reduce.
	ErrDeltaUnusable = errors.New("degred: delta not applicable to this base")
)

// deltaMaxFraction: fall back to a full rebuild when more than 1/4 of the
// originals were touched — past that, re-gadgeting costs a comparable
// number of row writes to a fresh compile and the bookkeeping stops paying
// for itself.
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

	// Touched originals: the delta endpoints, as sorted dense indices.
	touched := make([]int32, 0, 2*len(deltas))
	for _, d := range deltas {
		for _, v := range [2]graph.NodeID{d.U, d.V} {
			ix, ok := r.origIdx[v]
			if !ok {
				return nil, fmt.Errorf("%w: delta names unknown node %d", ErrDeltaUnusable, v)
			}
			touched = append(touched, ix)
		}
	}
	slices.Sort(touched)
	touched = slices.Compact(touched)
	if deltaMaxFraction*len(touched) > numOrig {
		return nil, fmt.Errorf("%w: %d of %d originals", ErrDeltaTooLarge, len(touched), numOrig)
	}

	// Gadget ID management: free the old slots of every touched original,
	// then allocate new slots from the freed pool (ascending) before minting
	// fresh IDs, so the ID universe stays exactly {0..nNew-1}. If the graph
	// shrank, surviving gadgets stranded above nNew are relocated down into
	// leftover holes; identity dense numbering is an invariant of every
	// generation, which keeps node-ID metering bounded.
	nOld := flat.NumNodes()
	var freed []int32
	need := 0
	for _, ix := range touched {
		d := cur.Degree(r.origIDs[ix])
		if d < 0 {
			return nil, fmt.Errorf("%w: node %d absent from current graph", ErrDeltaUnusable, r.origIDs[ix])
		}
		for _, gid := range r.slots[ix] {
			freed = append(freed, int32(gid))
		}
		need += gadgetSize(d)
	}
	slices.Sort(freed)
	nNew := nOld - len(freed) + need

	slots := slices.Clone(r.slots)
	gadgets := make([]graph.NodeID, need) // backing array of the new slot lists
	next := 0
	for _, ix := range touched {
		end := next + gadgetSize(cur.Degree(r.origIDs[ix]))
		s := gadgets[next:end:end]
		for k := range s {
			if next < len(freed) {
				s[k] = graph.NodeID(freed[next])
			} else {
				s[k] = graph.NodeID(nOld + next - len(freed))
			}
			next++
		}
		slots[ix] = s
	}

	// reloc[id-nNew] is the new ID of the survivor stranded at id, or -1
	// where id is a freed ID nothing uses any more. The holes below nNew are
	// a prefix of the unused freed IDs, which are sorted.
	var reloc []int32
	if nNew < nOld {
		holes := freed[need:]
		low, _ := slices.BinarySearch(holes, int32(nNew))
		if live := nOld - nNew - (len(holes) - low); live != low {
			return nil, fmt.Errorf("degred: internal: %d holes for %d stranded gadgets", low, live)
		}
		reloc = make([]int32, nOld-nNew)
		dead, fill := low, 0
		for i := range reloc {
			if dead < len(holes) && int(holes[dead]) == nNew+i {
				reloc[i] = -1
				dead++
			} else {
				reloc[i] = holes[fill]
				fill++
			}
		}
	}
	mapID := func(id int32) int32 {
		if int(id) < nNew {
			return id
		}
		return reloc[int(id)-nNew]
	}
	isTouched := func(id int32) bool {
		_, ok := slices.BinarySearch(touched, r.origIx[id])
		return ok
	}

	// The next generation: copies of the table and the projection, edited
	// in place through the same write as Reduce's.
	halves := flat.Table(nNew)
	orig := make([]graph.NodeID, nNew)
	origIx := make([]int32, nNew)
	copy(orig, r.orig)
	copy(origIx, r.origIx)
	set := func(node, port int32, h flatgraph.Half32) { halves[node*3+port] = h }

	// Relocated survivors: each row moves whole, far ends renumbered. A far
	// end at a touched original is rewritten with the original edges below.
	for i, newID := range reloc {
		if newID < 0 {
			continue
		}
		oldID := int32(nNew + i)
		for p := int32(0); p < 3; p++ {
			h := flat.Half(oldID, p)
			set(newID, p, flatgraph.Half32{To: mapID(h.To), Port: h.Port})
		}
		ix := r.origIx[oldID]
		orig[newID], origIx[newID] = r.orig[oldID], ix
		if &slots[ix][0] == &r.slots[ix][0] { // still the base's list
			slots[ix] = slices.Clone(slots[ix])
		}
		slots[ix][slices.Index(slots[ix], graph.NodeID(oldID))] = graph.NodeID(newID)
	}
	// Back-pointers into relocated rows: every half that pointed at an old
	// ID must point at the new one. Far ends owned by touched originals are
	// skipped — their rows are rewritten wholesale below.
	for i, newID := range reloc {
		if newID < 0 {
			continue
		}
		oldID := int32(nNew + i)
		for p := int32(0); p < 3; p++ {
			if h := flat.Half(oldID, p); !isTouched(h.To) {
				set(mapID(h.To), h.Port, flatgraph.Half32{To: newID, Port: p})
			}
		}
	}

	// Re-gadget each touched original through the same wiring as Reduce, so
	// a delta compile and a full compile are port-identical gadget by gadget.
	for _, ix := range touched {
		wire(slots[ix], cur.Degree(r.origIDs[ix]), set)
		for _, gid := range slots[ix] {
			orig[gid], origIx[gid] = r.origIDs[ix], ix
		}
	}

	// Original edges incident to touched nodes: rewrite both directions at
	// port 2 (the original-edge port of every non-theta gadget node). This
	// also repairs untouched neighbours whose half content went stale when
	// a touched endpoint's ports were compacted.
	for _, ix := range touched {
		v := r.origIDs[ix]
		s := slots[ix]
		for p := range cur.Degree(v) {
			h, err := cur.Neighbor(v, p)
			if err != nil {
				return nil, fmt.Errorf("%w: %v", ErrDeltaUnusable, err)
			}
			w, ok := r.origIdx[h.To]
			if !ok {
				return nil, fmt.Errorf("%w: edge to unknown node %d", ErrDeltaUnusable, h.To)
			}
			ws := slots[w]
			gv, gw := int32(s[p%len(s)]), int32(ws[h.ToPort%len(ws)])
			set(gv, 2, flatgraph.Half32{To: gw, Port: 2})
			set(gw, 2, flatgraph.Half32{To: gv, Port: 2})
		}
	}

	return &Reduced{
		orig:    orig,
		origIx:  origIx,
		slots:   slots,
		origIDs: r.origIDs,
		origIdx: r.origIdx,
		flat:    flatgraph.New(halves, orig),
	}, nil
}
