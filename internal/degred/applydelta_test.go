package degred

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/prng"
)

// slotRef names a gadget node independently of its ID: the original it
// simulates plus its position in that original's cycle order.
type slotRef struct {
	orig graph.NodeID
	slot int
}

// signature renders the reduced topology in ID-free form: for every
// (original, slot, port) triple, the (original, slot, port) triple on the
// far side. Two reductions of the same graph are port-preservingly
// isomorphic iff their signatures are equal, which is exactly the parity
// ApplyDelta promises against a fresh Reduce.
func signature(t *testing.T, r *Reduced) string {
	t.Helper()
	f := r.Flat()
	if f == nil {
		t.Fatal("reduction has no snapshot")
	}
	ref := make(map[graph.NodeID]slotRef, f.NumNodes())
	for _, v := range r.origIDs {
		for j, gid := range r.Gadget(v) {
			ref[gid] = slotRef{orig: v, slot: j}
		}
	}
	if len(ref) != f.NumNodes() {
		t.Fatalf("slot map covers %d of %d gadgets", len(ref), f.NumNodes())
	}
	lines := make([]string, 0, 3*f.NumNodes())
	for i := 0; i < f.NumNodes(); i++ {
		a := ref[graph.NodeID(i)]
		for p := int32(0); p < 3; p++ {
			h := f.Half(int32(i), p)
			b := ref[graph.NodeID(h.To)]
			lines = append(lines, fmt.Sprintf("%d.%d:%d->%d.%d:%d", a.orig, a.slot, p, b.orig, b.slot, h.Port))
		}
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// generation is a deep copy of everything a reduction owns: its packed
// port table, read one half at a time rather than through Table (the copy
// ApplyDelta edits), its projection and its gadget entries.
type generation struct {
	halves []uint32
	orig   []graph.NodeID
	entry  []int32
}

func copyGeneration(r *Reduced) generation {
	f := r.Flat()
	c := generation{
		halves: make([]uint32, 0, 3*f.NumNodes()),
		orig:   slices.Clone(r.orig),
		entry:  slices.Clone(r.entry),
	}
	for i := int32(0); i < int32(f.NumNodes()); i++ {
		for p := int32(0); p < 3; p++ {
			c.halves = append(c.halves, f.Half(i, p).Pack())
		}
	}
	return c
}

func (c generation) equal(d generation) bool {
	return slices.Equal(c.halves, d.halves) && slices.Equal(c.orig, d.orig) &&
		slices.Equal(c.entry, d.entry)
}

// applyDelta runs red.ApplyDelta and fails the test if the call changed
// its receiver: walkers may still hold the base's snapshot, so a delta
// compile must edit copies.
func applyDelta(t *testing.T, red *Reduced, g *graph.Graph, deltas []graph.Delta) (*Reduced, error) {
	t.Helper()
	before := copyGeneration(red)
	next, err := red.ApplyDelta(g, deltas)
	if !copyGeneration(red).equal(before) {
		t.Fatal("ApplyDelta changed its receiver's table, projection or entries")
	}
	return next, err
}

// checkParity asserts that got (a delta compile) is indistinguishable from
// a fresh Reduce of g: structure, component index, and validity.
func checkParity(t *testing.T, g *graph.Graph, got *Reduced) {
	t.Helper()
	want, err := Reduce(g)
	if err != nil {
		t.Fatalf("reference Reduce: %v", err)
	}
	if gs, ws := signature(t, got), signature(t, want); gs != ws {
		t.Fatalf("delta and full reductions differ structurally:\ndelta:\n%s\nfull:\n%s", gs, ws)
	}
	gf, wf := got.Flat(), want.Flat()
	if err := gf.CheckConsistent(); err != nil {
		t.Fatalf("delta snapshot inconsistent: %v", err)
	}
	gc, wc := gf.Components(), wf.Components()
	if gc.Count() != wc.Count() {
		t.Fatalf("component count: delta %d, full %d", gc.Count(), wc.Count())
	}
	for _, v := range got.origIDs {
		ge, _ := got.Entry(v)
		we, _ := want.Entry(v)
		gi, _ := gf.Index(ge)
		wi, _ := wf.Index(we)
		if gc.Of(gi) != wc.Of(wi) {
			t.Fatalf("node %d: delta component %d, full component %d", v, gc.Of(gi), wc.Of(wi))
		}
	}
	for id := int32(0); id < int32(gc.Count()); id++ {
		if gc.Size(id) != wc.Size(id) {
			t.Fatalf("component %d: delta size %d, full size %d", id, gc.Size(id), wc.Size(id))
		}
	}
	mg := got.Graph()
	if mg == nil {
		t.Fatal("delta reduction failed to materialize a graph")
	}
	if err := mg.Validate(); err != nil {
		t.Fatalf("materialized graph invalid: %v", err)
	}
	if !mg.IsRegular(3) {
		t.Fatal("materialized graph is not 3-regular")
	}
}

// seedGraph builds a graph on n nodes with roughly e random edges.
func seedGraph(t *testing.T, src *prng.Source, n, e int) *graph.Graph {
	t.Helper()
	g := graph.New()
	for i := 0; i < n; i++ {
		if err := g.AddNode(graph.NodeID(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < e; i++ {
		u, v := graph.NodeID(src.Intn(n)), graph.NodeID(src.Intn(n))
		if _, _, err := g.AddEdge(u, v); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

// mutateOnce applies one random mutation, biased to exercise adds, removes,
// self-loops, and parallel edges.
func mutateOnce(t *testing.T, g *graph.Graph, src *prng.Source, n int) {
	t.Helper()
	u := graph.NodeID(src.Intn(n))
	switch src.Intn(4) {
	case 0: // remove a random edge if possible
		if d := g.Degree(u); d > 0 {
			if err := g.RemoveEdge(u, src.Intn(d)); err != nil {
				t.Fatal(err)
			}
			return
		}
		fallthrough
	case 1: // self-loop
		if _, _, err := g.AddEdge(u, u); err != nil {
			t.Fatal(err)
		}
	default:
		v := graph.NodeID(src.Intn(n))
		if _, _, err := g.AddEdge(u, v); err != nil {
			t.Fatal(err)
		}
	}
}

// TestApplyDeltaMatchesReduce chains many delta generations over a churning
// graph and checks each against a from-scratch reduction: identical
// structure (up to the gadget-ID isomorphism), identical canonical
// component ids and sizes, and a valid 3-regular materialized graph. Every
// base must come out of its ApplyDelta call unchanged. The
// small node count keeps degree transitions (0↔1↔2↔3↔more), splits,
// merges, and gadget-ID relocation all in constant rotation.
func TestApplyDeltaMatchesReduce(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			src := prng.New(seed)
			const n = 48
			g := seedGraph(t, src, n, 60)
			j := graph.NewJournal(0)
			g.SetJournal(j)
			red, err := Reduce(g)
			if err != nil {
				t.Fatal(err)
			}
			deltaGens := 0
			for gen := 0; gen < 40; gen++ {
				for m := 0; m < 1+src.Intn(3); m++ {
					mutateOnce(t, g, src, n)
				}
				if j.Dirty() {
					t.Fatalf("gen %d: journal unexpectedly dirty: %s", gen, j.DirtyReason())
				}
				next, err := applyDelta(t, red, g, j.Peek())
				if errors.Is(err, ErrDeltaTooLarge) {
					next, err = Reduce(g)
				} else if err == nil {
					deltaGens++
				}
				if err != nil {
					t.Fatalf("gen %d: %v", gen, err)
				}
				j.Reset()
				checkParity(t, g, next)
				red = next
			}
			if deltaGens < 30 {
				t.Fatalf("only %d of 40 generations took the delta path", deltaGens)
			}
		})
	}
}

// TestApplyDeltaFallbacks pins the errors that route callers to a full
// rebuild.
func TestApplyDeltaFallbacks(t *testing.T) {
	src := prng.New(7)
	g := seedGraph(t, src, 12, 16)
	red, err := Reduce(g)
	if err != nil {
		t.Fatal(err)
	}
	t.Run("too-large", func(t *testing.T) {
		j := graph.NewJournal(0)
		g2 := g.Clone()
		g2.SetJournal(j)
		for i := 0; i < 12; i++ { // touch every node
			if _, _, err := g2.AddEdge(graph.NodeID(i), graph.NodeID((i+1)%12)); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := red.ApplyDelta(g2, j.Peek()); !errors.Is(err, ErrDeltaTooLarge) {
			t.Fatalf("got %v, want ErrDeltaTooLarge", err)
		}
	})
	t.Run("long-gadget-reads", func(t *testing.T) {
		// Node 0 has 200 parallel edges to node 1 and one to a path of
		// eight more. Flipping that one touches two of ten originals, but
		// node 0's far ends in node 1's 200-node gadget are all parallel,
		// so each is walked to, about 20,000 hops where the base has 416
		// nodes.
		g := seedGraph(t, src, 10, 0)
		for range 200 {
			if _, _, err := g.AddEdge(0, 1); err != nil {
				t.Fatal(err)
			}
		}
		if _, _, err := g.AddEdge(0, 2); err != nil {
			t.Fatal(err)
		}
		for u := graph.NodeID(2); u < 9; u++ {
			if _, _, err := g.AddEdge(u, u+1); err != nil {
				t.Fatal(err)
			}
		}
		red, err := Reduce(g)
		if err != nil {
			t.Fatal(err)
		}
		j := graph.NewJournal(0)
		g.SetJournal(j)
		flipEdge(t, g, 0, 2)
		_, err = applyDelta(t, red, g, j.Peek())
		if !errors.Is(err, ErrDeltaTooLarge) || !strings.Contains(err.Error(), "gadget reads") {
			t.Fatalf("got %v, want ErrDeltaTooLarge for the gadget reads", err)
		}
	})
	t.Run("unknown-node", func(t *testing.T) {
		deltas := []graph.Delta{{Op: graph.DeltaAdd, U: 99, V: 0}}
		if _, err := red.ApplyDelta(g, deltas); !errors.Is(err, ErrDeltaUnusable) {
			t.Fatalf("got %v, want ErrDeltaUnusable", err)
		}
	})
	t.Run("absent-from-current", func(t *testing.T) {
		cur := seedGraph(t, src, 11, 0) // lacks node 11, which the base knows
		deltas := []graph.Delta{{Op: graph.DeltaAdd, U: 11, V: 0}}
		_, err := red.ApplyDelta(cur, deltas)
		if !errors.Is(err, ErrDeltaUnusable) || !strings.Contains(err.Error(), "absent from current graph") {
			t.Fatalf("got %v, want ErrDeltaUnusable for a node absent from the current graph", err)
		}
	})
	t.Run("empty-delta-is-identity", func(t *testing.T) {
		got, err := red.ApplyDelta(g, nil)
		if err != nil || got != red {
			t.Fatalf("empty delta: got (%p, %v), want the base back", got, err)
		}
	})
}

// TestApplyDeltaReadsFarGadgets changes links whose touched ends reach
// big untouched gadgets and checks each delta compile against Reduce. On
// the hub, a star whose leaves also form a path, the touched leaves reach
// the hub's 66-node gadget: leaves 1 and 2 near its entry, by a short
// walk; leaves 31, 32, 62 and 63 more than eight hops round, by a lookup
// among their sorted far ends; leaf 40 through three parallel edges, each
// walked to, as far as 65 hops. On K96 every far end is a lookup, and
// walking to them all would pass the hop bound. Its originals are added
// in descending order, so gadget IDs ascend as originals descend, and
// node 0's gadget comes last: cutting twelve links among the first-added
// originals shrinks G′ by 24 nodes, which relocates the tail of node 0's
// gadget, where those originals' far ends lie.
func TestApplyDeltaReadsFarGadgets(t *testing.T) {
	hub := gen.Star(65)
	for i := graph.NodeID(1); i < 64; i++ {
		if _, _, err := hub.AddEdge(i, i+1); err != nil {
			t.Fatal(err)
		}
	}
	for range 2 {
		if _, _, err := hub.AddEdge(40, 0); err != nil {
			t.Fatal(err)
		}
	}
	clique := func() *graph.Graph {
		g := graph.New()
		for u := graph.NodeID(95); u >= 0; u-- {
			g.EnsureNode(u)
		}
		for u := graph.NodeID(0); u < 96; u++ {
			for v := u + 1; v < 96; v++ {
				if _, _, err := g.AddEdge(u, v); err != nil {
					t.Fatal(err)
				}
			}
		}
		return g
	}
	pairs := func(from graph.NodeID) [][2]graph.NodeID {
		var ps [][2]graph.NodeID
		for u := from; u < from+24; u += 2 {
			ps = append(ps, [2]graph.NodeID{u, u + 1})
		}
		return ps
	}
	for _, tc := range []struct {
		name        string
		g           *graph.Graph
		flips, cuts [][2]graph.NodeID
	}{
		{"hub", hub, [][2]graph.NodeID{{1, 2}, {31, 32}, {40, 41}, {62, 63}}, nil},
		{"clique", clique(), pairs(36), nil},
		{"clique-shrinks", clique(), nil, pairs(72)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			red, err := Reduce(tc.g)
			if err != nil {
				t.Fatal(err)
			}
			j := graph.NewJournal(0)
			tc.g.SetJournal(j)
			for _, f := range tc.flips {
				flipEdge(t, tc.g, f[0], f[1])
			}
			for _, c := range tc.cuts {
				cutEdge(t, tc.g, c[0], c[1])
			}
			next, err := applyDelta(t, red, tc.g, j.Peek())
			if err != nil {
				t.Fatal(err)
			}
			if tc.cuts != nil && next.Flat().NumNodes() >= red.Flat().NumNodes() {
				t.Fatalf("G′ kept %d nodes of %d", next.Flat().NumNodes(), red.Flat().NumNodes())
			}
			checkParity(t, tc.g, next)
		})
	}
}

// cutEdge removes a link between u and v.
func cutEdge(t *testing.T, g *graph.Graph, u, v graph.NodeID) {
	t.Helper()
	p, ok := g.PortTo(u, v)
	if !ok {
		t.Fatalf("no link between %d and %d", u, v)
	}
	if err := g.RemoveEdge(u, p); err != nil {
		t.Fatal(err)
	}
}

// flipEdge removes a link between u and v and adds it back, which moves
// it to the last port at both ends.
func flipEdge(t *testing.T, g *graph.Graph, u, v graph.NodeID) {
	t.Helper()
	cutEdge(t, g, u, v)
	if _, _, err := g.AddEdge(u, v); err != nil {
		t.Fatal(err)
	}
}

// FuzzApplyDelta drives random journal/apply sequences from fuzzer-chosen
// bytes: each byte picks a mutation, every few mutations the journal is
// drained through ApplyDelta, the result must match a fresh Reduce, and
// the base must be left unchanged.
func FuzzApplyDelta(f *testing.F) {
	f.Add([]byte{0x01, 0x42, 0x90, 0x17, 0xfe, 0x33, 0x08, 0x77})
	f.Add([]byte{0xff, 0x00, 0xff, 0x00, 0xab, 0xcd})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 256 {
			t.Skip()
		}
		const n = 32
		src := prng.New(11)
		g := seedGraph(t, src, n, 40)
		j := graph.NewJournal(0)
		g.SetJournal(j)
		red, err := Reduce(g)
		if err != nil {
			t.Fatal(err)
		}
		for i, b := range data {
			u := graph.NodeID(int(b>>3) % n)
			v := graph.NodeID(int(b&0x07) * 4 % n)
			if b&0x80 != 0 && g.Degree(u) > 0 {
				if err := g.RemoveEdge(u, int(b)%g.Degree(u)); err != nil {
					t.Fatal(err)
				}
			} else if _, _, err := g.AddEdge(u, v); err != nil {
				t.Fatal(err)
			}
			if i%3 != 2 && i != len(data)-1 {
				continue
			}
			next, err := applyDelta(t, red, g, j.Peek())
			if errors.Is(err, ErrDeltaTooLarge) {
				next, err = Reduce(g)
			}
			if err != nil {
				t.Fatal(err)
			}
			j.Reset()
			checkParity(t, g, next)
			red = next
		}
	})
}
