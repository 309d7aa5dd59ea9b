// Package zigzag implements the derandomization substrate behind Reingold's
// theorem (Theorem 4 of the paper): rotation-map graphs, graph squaring,
// the zig-zag and replacement products, spectral-gap estimation, and the
// main transform that turns any connected constant-degree graph into a
// constant-degree expander in O(log n) levels. This is the machinery that
// makes log-space universal exploration sequences exist.
//
// The package follows Reingold–Vadhan–Wigderson: a D-regular multigraph on
// [N] is presented as a rotation map Rot: [N]×[D] → [N]×[D] with
// Rot(Rot(v,i)) = (v,i); Rot(v,i) = (w,j) means the i-th edge of v leads to
// w and is the j-th edge of w. Self-loops may be rotation-map fixed points.
//
// Faithfulness note: Reingold's USTCON algorithm decides connectivity by
// enumerating all D^O(log N) walks of logarithmic length on the transformed
// expander — polynomial, but with galactic constants. We build the
// transform itself and *measure* the property that makes the enumeration
// work (constant spectral gap, hence O(log N) diameter; experiment E8), and
// expose a connectivity decision that certifies the log-diameter bound.
package zigzag

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/graph"
	"repro/internal/prng"
)

// Errors reported by rotation-map constructions.
var (
	ErrNotRegular    = errors.New("zigzag: graph is not regular")
	ErrBadDims       = errors.New("zigzag: incompatible product dimensions")
	ErrTooLarge      = errors.New("zigzag: construction exceeds size budget")
	ErrNotInvolution = errors.New("zigzag: rotation map is not an involution")
)

// MaxEntries bounds the size (N·D) of any constructed rotation map; the
// main transform multiplies N by D² per level, so explicit construction is
// only feasible for demonstration sizes.
const MaxEntries = 1 << 26

// RotGraph is a D-regular multigraph on N vertices in rotation-map form.
type RotGraph struct {
	n, d int
	// rot[v*d+i] = w*d+j, the packed image of (v,i).
	rot []int32
}

// NewRotGraph wraps a packed rotation table. The table is not copied.
func NewRotGraph(n, d int, rot []int32) (*RotGraph, error) {
	g := &RotGraph{n: n, d: d, rot: rot}
	if len(rot) != n*d {
		return nil, fmt.Errorf("zigzag: table has %d entries, want %d", len(rot), n*d)
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// N returns the number of vertices.
func (g *RotGraph) N() int { return g.n }

// D returns the degree.
func (g *RotGraph) D() int { return g.d }

// Rot applies the rotation map to (v, i).
func (g *RotGraph) Rot(v, i int) (w, j int) {
	p := g.rot[v*g.d+i]
	return int(p) / g.d, int(p) % g.d
}

// Validate checks that the rotation map is a well-formed involution.
func (g *RotGraph) Validate() error {
	for v := 0; v < g.n; v++ {
		for i := 0; i < g.d; i++ {
			p := g.rot[v*g.d+i]
			if p < 0 || int(p) >= g.n*g.d {
				return fmt.Errorf("zigzag: entry (%d,%d) out of range: %d", v, i, p)
			}
			if g.rot[p] != int32(v*g.d+i) {
				return fmt.Errorf("%w: at (%d,%d)", ErrNotInvolution, v, i)
			}
		}
	}
	return nil
}

// FromGraph converts a regular port-labeled graph into rotation-map form.
// Node IDs are densified in insertion order.
func FromGraph(gr *graph.Graph) (*RotGraph, error) {
	n := gr.NumNodes()
	if n == 0 {
		return nil, fmt.Errorf("zigzag: empty graph")
	}
	d := gr.MaxDegree()
	if !gr.IsRegular(d) {
		return nil, fmt.Errorf("%w: degrees range %d..%d", ErrNotRegular, gr.MinDegree(), d)
	}
	ix := graph.NewIndexer(gr)
	rot := make([]int32, n*d)
	var err error
	gr.ForEachNode(func(v graph.NodeID) {
		vi, _ := ix.Index(v)
		for p := 0; p < d; p++ {
			h, nerr := gr.Neighbor(v, p)
			if nerr != nil {
				err = nerr
				return
			}
			wi, _ := ix.Index(h.To)
			rot[vi*d+p] = int32(wi*d + h.ToPort)
		}
	})
	if err != nil {
		return nil, err
	}
	return NewRotGraph(n, d, rot)
}

// Regularize pads every vertex of gr with rotation-map self-loops up to
// degree target, producing a target-regular rotation graph. target must be
// at least the maximum degree of gr. Self-loops make the walk lazy, which
// only helps spectral convergence arguments.
func Regularize(gr *graph.Graph, target int) (*RotGraph, error) {
	n := gr.NumNodes()
	if n == 0 {
		return nil, fmt.Errorf("zigzag: empty graph")
	}
	if gr.MaxDegree() > target {
		return nil, fmt.Errorf("zigzag: max degree %d exceeds target %d", gr.MaxDegree(), target)
	}
	if n*target > MaxEntries {
		return nil, fmt.Errorf("%w: %d entries", ErrTooLarge, n*target)
	}
	ix := graph.NewIndexer(gr)
	rot := make([]int32, n*target)
	var err error
	gr.ForEachNode(func(v graph.NodeID) {
		vi, _ := ix.Index(v)
		deg := gr.Degree(v)
		for p := 0; p < deg; p++ {
			h, nerr := gr.Neighbor(v, p)
			if nerr != nil {
				err = nerr
				return
			}
			wi, _ := ix.Index(h.To)
			rot[vi*target+p] = int32(wi*target + h.ToPort)
		}
		for p := deg; p < target; p++ {
			rot[vi*target+p] = int32(vi*target + p) // self-loop fixed point
		}
	})
	if err != nil {
		return nil, err
	}
	return NewRotGraph(n, target, rot)
}

// Square returns G²: same vertices, degree D², where the (a,b)-th edge of v
// follows edge a then edge b. λ(G²) = λ(G)².
func (g *RotGraph) Square() (*RotGraph, error) {
	n, d := g.n, g.d
	d2 := d * d
	if n*d2 > MaxEntries {
		return nil, fmt.Errorf("%w: %d entries", ErrTooLarge, n*d2)
	}
	rot := make([]int32, n*d2)
	for v := 0; v < n; v++ {
		for a := 0; a < d; a++ {
			u, a2 := g.Rot(v, a)
			for b := 0; b < d; b++ {
				w, b2 := g.Rot(u, b)
				// Edge label at v is a*d+b; at w it is b2*d+a2, which makes
				// the map an involution.
				rot[v*d2+a*d+b] = int32(w*d2 + b2*d + a2)
			}
		}
	}
	return NewRotGraph(n, d2, rot)
}

// ZigZag returns the zig-zag product G ⓩ H. G must be D-regular and H must
// have exactly D vertices; the result is d²-regular on N·D vertices, where
// d is H's degree. λ(GⓏH) is bounded by a function of λ(G) and λ(H)
// (RVW Theorem 4.3), and degree depends only on H.
func ZigZag(g, h *RotGraph) (*RotGraph, error) {
	if h.n != g.d {
		return nil, fmt.Errorf("%w: |V(H)| = %d, deg(G) = %d", ErrBadDims, h.n, g.d)
	}
	bigN := g.n * g.d
	d2 := h.d * h.d
	if bigN*d2 > MaxEntries {
		return nil, fmt.Errorf("%w: %d entries", ErrTooLarge, bigN*d2)
	}
	rot := make([]int32, bigN*d2)
	for v := 0; v < g.n; v++ {
		for a := 0; a < g.d; a++ {
			for i := 0; i < h.d; i++ {
				aPrime, iPrime := h.Rot(a, i)
				w, bPrime := g.Rot(v, aPrime)
				for j := 0; j < h.d; j++ {
					b, jPrime := h.Rot(bPrime, j)
					from := (v*g.d+a)*d2 + i*h.d + j
					to := (w*g.d+b)*d2 + jPrime*h.d + iPrime
					rot[from] = int32(to)
				}
			}
		}
	}
	return NewRotGraph(bigN, d2, rot)
}

// Replacement returns the replacement product G ⓡ H: every vertex of G is
// replaced by a copy of H ("cloud"); labels 0..d-1 are H's edges inside the
// cloud and label d crosses to the neighbouring cloud via G's rotation map.
// The result is (d+1)-regular on N·D vertices. A walk on G ⓡ H projects to
// a walk on G by keeping only the label-d steps — the projection property
// that lets expander walks drive base-graph exploration.
func Replacement(g, h *RotGraph) (*RotGraph, error) {
	if h.n != g.d {
		return nil, fmt.Errorf("%w: |V(H)| = %d, deg(G) = %d", ErrBadDims, h.n, g.d)
	}
	bigN := g.n * g.d
	dd := h.d + 1
	if bigN*dd > MaxEntries {
		return nil, fmt.Errorf("%w: %d entries", ErrTooLarge, bigN*dd)
	}
	rot := make([]int32, bigN*dd)
	for v := 0; v < g.n; v++ {
		for a := 0; a < g.d; a++ {
			base := (v*g.d + a) * dd
			for i := 0; i < h.d; i++ {
				b, j := h.Rot(a, i)
				rot[base+i] = int32((v*g.d+b)*dd + j)
			}
			w, b := g.Rot(v, a)
			rot[base+h.d] = int32((w*g.d+b)*dd + h.d)
		}
	}
	return NewRotGraph(bigN, dd, rot)
}

// Lambda estimates the second-largest absolute eigenvalue of the normalized
// adjacency (random-walk) matrix by power iteration on the complement of
// the all-ones vector. iters controls the iteration count (0 means a
// default that converges well for demonstration sizes). The estimate is a
// lower bound that converges from below.
func (g *RotGraph) Lambda(iters int) float64 {
	if iters <= 0 {
		iters = 120
	}
	n := g.n
	if n <= 1 {
		return 0
	}
	x := make([]float64, n)
	y := make([]float64, n)
	src := prng.New(0x5eed)
	for i := range x {
		x[i] = src.Float64() - 0.5
	}
	deflate(x)
	normalize(x)
	lambda := 0.0
	for it := 0; it < iters; it++ {
		for i := range y {
			y[i] = 0
		}
		for v := 0; v < n; v++ {
			share := x[v] / float64(g.d)
			for i := 0; i < g.d; i++ {
				w, _ := g.Rot(v, i)
				y[w] += share
			}
		}
		deflate(y)
		lambda = norm(y)
		if lambda == 0 {
			return 0
		}
		normalize(y)
		x, y = y, x
	}
	return lambda
}

// ToGraph converts the rotation map back to a port-labeled graph with node
// IDs 0..N-1.
func (g *RotGraph) ToGraph() (*graph.Graph, error) {
	order := make([]graph.NodeID, g.n)
	adj := make(map[graph.NodeID][]graph.Half, g.n)
	for v := 0; v < g.n; v++ {
		order[v] = graph.NodeID(v)
		hs := make([]graph.Half, g.d)
		for i := 0; i < g.d; i++ {
			w, j := g.Rot(v, i)
			hs[i] = graph.Half{To: graph.NodeID(w), ToPort: j}
		}
		adj[graph.NodeID(v)] = hs
	}
	return graph.NewFromAdjacency(order, adj)
}

// BFSDiameter returns the eccentricity-based diameter of the rotation
// graph's connected component containing vertex 0, by BFS.
func (g *RotGraph) BFSDiameter() int {
	maxEcc := 0
	dist := make([]int, g.n)
	queue := make([]int, 0, g.n)
	for src := 0; src < g.n; src++ {
		for i := range dist {
			dist[i] = -1
		}
		dist[src] = 0
		queue = append(queue[:0], src)
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for i := 0; i < g.d; i++ {
				w, _ := g.Rot(v, i)
				if dist[w] == -1 {
					dist[w] = dist[v] + 1
					queue = append(queue, w)
					if dist[w] > maxEcc {
						maxEcc = dist[w]
					}
				}
			}
		}
	}
	return maxEcc
}

// Connected reports whether u and v lie in one component of g, and whether
// the connecting path (if any) respects the O(log N) length bound that
// Reingold's walk enumeration relies on. dist is the BFS distance or -1.
func (g *RotGraph) Connected(u, v int) (connected bool, withinLogBound bool, dist int) {
	if u == v {
		return true, true, 0
	}
	d := make([]int, g.n)
	for i := range d {
		d[i] = -1
	}
	d[u] = 0
	queue := []int{u}
	for len(queue) > 0 {
		x := queue[0]
		queue = queue[1:]
		for i := 0; i < g.d; i++ {
			w, _ := g.Rot(x, i)
			if d[w] == -1 {
				d[w] = d[x] + 1
				if w == v {
					bound := logBound(g.n)
					return true, d[w] <= bound, d[w]
				}
				queue = append(queue, w)
			}
		}
	}
	return false, false, -1
}

// logBound is the path-length budget c·log₂ N (c = 8) used by the
// connectivity certificate.
func logBound(n int) int {
	if n < 2 {
		return 1
	}
	return 8 * int(math.Ceil(math.Log2(float64(n))))
}

func deflate(x []float64) {
	mean := 0.0
	for _, v := range x {
		mean += v
	}
	mean /= float64(len(x))
	for i := range x {
		x[i] -= mean
	}
}

func norm(x []float64) float64 {
	s := 0.0
	for _, v := range x {
		s += v * v
	}
	return math.Sqrt(s)
}

func normalize(x []float64) {
	n := norm(x)
	if n == 0 {
		return
	}
	for i := range x {
		x[i] /= n
	}
}
