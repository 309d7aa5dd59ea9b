package flatgraph

import "sort"

// Connected components of the snapshot, computed once and memoized on the
// Graph (which never changes after New, so the index never goes stale).
// The walk of §4 can only ever reach nodes in the component of its start,
// so two nodes in different components are provably mutually unreachable:
// comparing their component ids answers in O(1) what the doubling loop
// would otherwise establish by burning its entire budget.

// Components is an immutable node→component index over one snapshot.
// Component ids are canonical — components are ranked by the smallest
// original NodeID they contain and numbered 0..Count()-1 in that order.
// The ranking depends only on the projected original topology, never on
// gadget numbering, so a full reduction and a delta-patched one of the
// same topology version assign identical ids and certificates minted from
// either snapshot compare equal.
type Components struct {
	comp  []int32
	sizes []int32
}

// Components returns the connected-component index of f, computing it on
// first use. Safe for concurrent callers. Reduced and delta-patched
// snapshots alike start without an index, so a snapshot no caller asks
// about never pays for the labelling.
func (f *Graph) Components() *Components {
	f.compOnce.Do(func() { f.comps = computeComponents(f) })
	return f.comps
}

// computeComponents runs union-find (path halving + union by size) over
// the half-edge table, then relabels components canonically by their
// minimum original NodeID.
func computeComponents(f *Graph) *Components {
	n := f.NumNodes()
	parent := make([]int32, n)
	size := make([]int32, n)
	for i := range parent {
		parent[i] = int32(i)
		size[i] = 1
	}
	find := func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]] // path halving
			x = parent[x]
		}
		return x
	}
	for i := 0; i < n; i++ {
		for _, e := range f.halves[i*3 : i*3+3] {
			to, _ := unpack(e)
			a, b := find(int32(i)), find(to)
			if a == b {
				continue
			}
			if size[a] < size[b] {
				a, b = b, a
			}
			parent[b] = a
			size[a] += size[b]
		}
	}
	// Rank roots by the minimum original NodeID of their members, so ids do
	// not depend on how the compile path happened to number gadget nodes.
	minOrig := make(map[int32]int64, 4)
	for i := 0; i < n; i++ {
		r := find(int32(i))
		o := int64(f.orig[i])
		if cur, ok := minOrig[r]; !ok || o < cur {
			minOrig[r] = o
		}
	}
	roots := make([]int32, 0, len(minOrig))
	for r := range minOrig {
		roots = append(roots, r)
	}
	sort.Slice(roots, func(i, j int) bool { return minOrig[roots[i]] < minOrig[roots[j]] })
	label := make(map[int32]int32, len(roots))
	c := &Components{comp: make([]int32, n), sizes: make([]int32, len(roots))}
	for rank, r := range roots {
		label[r] = int32(rank)
		c.sizes[rank] = size[r]
	}
	for i := 0; i < n; i++ {
		c.comp[i] = label[find(int32(i))]
	}
	return c
}

// Of returns the component id of dense node i.
func (c *Components) Of(i int32) int32 { return c.comp[i] }

// Same reports whether dense nodes i and j lie in the same component —
// equivalently, whether a walk started at one can ever visit the other.
func (c *Components) Same(i, j int32) bool { return c.comp[i] == c.comp[j] }

// Count returns the number of components.
func (c *Components) Count() int { return len(c.sizes) }

// Size returns the number of snapshot nodes in component id.
func (c *Components) Size(id int32) int { return int(c.sizes[id]) }
