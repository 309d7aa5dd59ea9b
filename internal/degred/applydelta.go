package degred

import (
	"cmp"
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
// next generation is a copy of the old packed table, projection and entry
// array (O(n) memcpy of pointer-free arrays) edited in place by O(diff)
// row writes through the same wire Reduce uses, then wrapped by
// flatgraph.New. The result is port-preservingly isomorphic to a fresh
// Reduce of the mutated graph, so walks, verdicts, hop counts, and header
// bits are identical on either compile path.

var (
	// ErrDeltaTooLarge means the delta touches, or would read, more of the
	// graph than a delta compile can handle for less than recompiling;
	// callers fall back to a full Reduce.
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

// farHops is the longest walk round an untouched gadget, from its entry,
// that ApplyDelta takes to read one of its nodes before it sorts the
// touched original's far ends instead: a few table loads cost less than
// the sort.
const farHops = 8

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
// The nodes of an untouched gadget are read off the base's table: by a
// short walk round the gadget from its entry, or among the touched
// original's far ends. Only parallel edges to a big gadget need long
// walks; past as many hops as the base has nodes, a full Reduce is the
// cheaper compile and ApplyDelta returns ErrDeltaTooLarge. An original's
// dense index is looked up (origIdx[orig[g]]) only at the rows a
// relocation moves.
//
// On ErrDeltaTooLarge or ErrDeltaUnusable the caller should fall back to
// Reduce(cur).
func (r *Reduced) ApplyDelta(cur *graph.Graph, deltas []graph.Delta) (*Reduced, error) {
	if len(deltas) == 0 {
		return r, nil // no topology change: the base is already current
	}
	flat := r.flat
	numOrig := len(r.origIDs)

	// Touched originals: the delta endpoints, sorted by dense index.
	touched := make([]touch, 0, 2*len(deltas))
	for _, d := range deltas {
		for _, v := range [2]graph.NodeID{d.U, d.V} {
			ix, ok := r.origIdx[v]
			if !ok {
				return nil, fmt.Errorf("%w: delta names unknown node %d", ErrDeltaUnusable, v)
			}
			touched = append(touched, touch{ix: ix})
		}
	}
	slices.SortFunc(touched, func(a, b touch) int { return cmp.Compare(a.ix, b.ix) })
	touched = slices.CompactFunc(touched, func(a, b touch) bool { return a.ix == b.ix })
	if deltaMaxFraction*len(touched) > numOrig {
		return nil, fmt.Errorf("%w: %d of %d originals", ErrDeltaTooLarge, len(touched), numOrig)
	}

	// Gadget ID management: free the old gadget of every touched original,
	// then allocate new gadgets from the freed pool (ascending) before
	// minting fresh IDs, so the ID universe stays exactly {0..nNew-1}. If
	// the graph shrank, surviving gadgets stranded above nNew are relocated
	// down into leftover holes; identity dense numbering is an invariant of
	// every generation, which keeps node-ID metering bounded.
	nOld := flat.NumNodes()
	var freed []int32
	need := 0
	for k := range touched {
		t := &touched[k]
		d := cur.Degree(r.origIDs[t.ix])
		if d < 0 {
			return nil, fmt.Errorf("%w: node %d absent from current graph", ErrDeltaUnusable, r.origIDs[t.ix])
		}
		e := r.entry[t.ix]
		for g, j := e, 0; ; j++ {
			freed = append(freed, g)
			if g = r.succ(g, j); g == e {
				break
			}
		}
		t.deg, t.off = int32(d), int32(need)
		need += gadgetSize(d)
	}
	slices.Sort(freed)
	nNew := nOld - len(freed) + need
	if err := checkSize(nNew); err != nil {
		return nil, err
	}

	// gadgets lists the new gadgets' IDs in allocation order, which is
	// ascending: each touched original takes the run at its offset, and
	// its entry is the run's first ID.
	gadgets := make([]int32, need)
	for q := range gadgets {
		if q < len(freed) {
			gadgets[q] = freed[q]
		} else {
			gadgets[q] = int32(nOld + q - len(freed))
		}
	}
	entry := slices.Clone(r.entry)
	for _, t := range touched {
		entry[t.ix] = gadgets[t.off]
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
	// node returns the new ID of the gadget node that owns port p of the
	// original at dense index ix, a neighbour of the touched original at
	// dense index from: a touched original's from its new run, an
	// untouched one's read off the base's table and renumbered if it was
	// relocated. The table read walks p nodes round the untouched gadget's
	// cycle from its entry when p is at most farHops. Past that, the node
	// is looked up in far, the base gadget nodes across from's edges
	// sorted by the original they simulate, where a neighbour joined to
	// from by one edge owns exactly one; only a neighbour joined to from
	// by parallel edges is walked further. walked counts the hops.
	var far []int32
	walked := 0
	node := func(from, ix int32, p int) int32 {
		if k, ok := slices.BinarySearchFunc(touched, ix, byIx); ok {
			return gadgets[int(touched[k].off)+p]
		}
		if p > farHops {
			if len(far) == 0 {
				far = r.farEnds(far, r.entry[from])
			}
			w := r.origIDs[ix]
			i, ok := slices.BinarySearchFunc(far, w, func(x int32, o graph.NodeID) int { return cmp.Compare(r.orig[x], o) })
			if ok && (i+1 == len(far) || r.orig[far[i+1]] != w) {
				return mapID(far[i])
			}
		}
		g := r.entry[ix]
		for j := range p {
			g = r.succ(g, j)
		}
		walked += p
		return mapID(g)
	}

	// The next generation: copies of the table and the projection, edited
	// in place through the same write as Reduce's.
	halves := flat.Table(nNew)
	base := r.orig // a local source lets make+copy skip zeroing, as in Table
	orig := make([]graph.NodeID, nNew)
	copy(orig, base)
	set := func(node, port int32, h flatgraph.Half32) { halves[node*3+port] = h.Pack() }

	// Relocated survivors: each row moves whole, far ends renumbered, and
	// an entry that moves is repointed. A far end at a touched original is
	// rewritten with the original edges below.
	for i, newID := range reloc {
		if newID < 0 {
			continue
		}
		oldID := int32(nNew + i)
		for p := int32(0); p < 3; p++ {
			h := flat.Half(oldID, p)
			set(newID, p, flatgraph.Half32{To: mapID(h.To), Port: h.Port})
		}
		orig[newID] = r.orig[oldID]
		if ix := r.origIdx[r.orig[oldID]]; entry[ix] == oldID {
			entry[ix] = newID
		}
	}
	// Back-pointers into relocated rows: every half that pointed at an old
	// ID must point at the new one. Far ends owned by touched originals,
	// whose old IDs are all freed, are skipped — their rows are rewritten
	// wholesale below.
	for i, newID := range reloc {
		if newID < 0 {
			continue
		}
		oldID := int32(nNew + i)
		for p := int32(0); p < 3; p++ {
			h := flat.Half(oldID, p)
			if _, gone := slices.BinarySearch(freed, h.To); !gone {
				set(mapID(h.To), h.Port, flatgraph.Half32{To: newID, Port: p})
			}
		}
	}

	// Re-gadget each touched original through the same wiring as Reduce, so
	// a delta compile and a full compile are port-identical gadget by
	// gadget; then rewrite both directions of every original edge incident
	// to it, at port 2 (the original-edge port of every non-theta gadget
	// node). This also repairs untouched neighbours whose half content went
	// stale when a touched endpoint's ports were compacted.
	for _, t := range touched {
		v := r.origIDs[t.ix]
		d := int(t.deg)
		s := gadgets[t.off : int(t.off)+gadgetSize(d)]
		wire(s, d, set)
		for _, g := range s {
			orig[g] = v
		}
		far = far[:0]
		for p := range d {
			h, err := cur.Neighbor(v, p)
			if err != nil {
				return nil, fmt.Errorf("%w: %v", ErrDeltaUnusable, err)
			}
			w, ok := r.origIdx[h.To]
			if !ok {
				return nil, fmt.Errorf("%w: edge to unknown node %d", ErrDeltaUnusable, h.To)
			}
			gv, gw := s[p], node(t.ix, w, h.ToPort)
			if walked > nOld {
				return nil, fmt.Errorf("%w: gadget reads past %d hops", ErrDeltaTooLarge, nOld)
			}
			set(gv, 2, flatgraph.Half32{To: gw, Port: 2})
			set(gw, 2, flatgraph.Half32{To: gv, Port: 2})
		}
	}

	return &Reduced{
		orig:    orig,
		entry:   entry,
		origIDs: r.origIDs,
		origIdx: r.origIdx,
		flat:    flatgraph.New(halves, orig),
	}, nil
}

// touch is an original a delta touched: its dense index, its degree in
// the graph being compiled, and where its new gadget's run starts among
// the new gadgets' IDs.
type touch struct{ ix, deg, off int32 }

func byIx(t touch, ix int32) int { return cmp.Compare(t.ix, ix) }
