package dynamic

import (
	"sort"

	"repro/internal/graph"
	"repro/internal/prng"
)

// Probe exposes the in-flight walk to schedules that react to it (the
// adversarial link cutter). The next-link computation is lazy: schedules
// that ignore the walk never pay for the lookahead.
type Probe struct {
	// Active reports whether a walk is in flight.
	Active bool
	// At is the original node currently holding the message.
	At graph.NodeID
	// nextLink, when non-nil, computes the next original-graph link the
	// walk intends to traverse on the current snapshot.
	nextLink func() (Edge, bool)
}

// NextLink returns the next original-graph link the walk will traverse,
// if the walk is active and will cross one within its lookahead horizon.
func (p Probe) NextLink() (Edge, bool) {
	if p.nextLink == nil {
		return Edge{}, false
	}
	return p.nextLink()
}

// Schedule mutates a world at each epoch boundary. Implementations must
// mutate only through World methods (AddEdge, RemoveEdgeBetween, SetPos,
// …) so the topology version stays exact, and must be deterministic in
// their seeds — reruns of a scenario reproduce the identical topology
// history.
type Schedule interface {
	Advance(w *World, epoch int, p Probe) error
}

// Static is the no-op schedule: the topology never changes. A dynamic
// route over a Static world reproduces the static router hop-for-hop
// (pinned by the differential tests).
type Static struct{}

// Advance does nothing.
func (Static) Advance(*World, int, Probe) error { return nil }

// Compose applies its member schedules in order each epoch — e.g. mobility
// re-deriving the geometric topology followed by Bernoulli link fading on
// whatever links geometry produced.
type Compose []Schedule

// Advance runs each member in order, stopping at the first error.
func (c Compose) Advance(w *World, epoch int, p Probe) error {
	for _, s := range c {
		if err := s.Advance(w, epoch, p); err != nil {
			return err
		}
	}
	return nil
}

// EdgeChurn is Bernoulli edge churn: each epoch, every current edge is
// removed independently with probability PDrop, and AddRate new edges (in
// expectation) are inserted between uniformly random distinct non-adjacent
// node pairs. The zero value is a no-op.
type EdgeChurn struct {
	// Seed drives the churn randomness.
	Seed uint64
	// PDrop is the per-edge removal probability per epoch.
	PDrop float64
	// AddRate is the expected number of fresh edges per epoch.
	AddRate float64

	src *prng.Source
}

// Advance applies one epoch of churn.
func (c *EdgeChurn) Advance(w *World, _ int, _ Probe) error {
	if c.src == nil {
		c.src = prng.New(c.Seed)
	}
	if c.PDrop > 0 {
		for _, e := range w.Edges() {
			if c.src.Float64() < c.PDrop {
				if err := w.RemoveEdgeBetween(e.U, e.V); err != nil {
					return err
				}
			}
		}
	}
	adds := int(c.AddRate)
	if frac := c.AddRate - float64(adds); frac > 0 && c.src.Float64() < frac {
		adds++
	}
	nodes := w.Graph().Nodes()
	if len(nodes) < 2 {
		return nil
	}
	for k := 0; k < adds; k++ {
		// A few tries to find a non-adjacent distinct pair; a dense epoch
		// just adds fewer edges.
		for try := 0; try < 8; try++ {
			u := nodes[c.src.Intn(len(nodes))]
			v := nodes[c.src.Intn(len(nodes))]
			if u == v || w.Graph().HasEdge(u, v) {
				continue
			}
			if _, _, err := w.AddEdge(u, v); err != nil {
				return err
			}
			break
		}
	}
	return nil
}

// MarkovLinks evolves each link of a fixed underlay as an independent
// two-state Markov chain: an up link goes down with probability PDown per
// epoch, a down link comes back up with probability PUp. The underlay is
// captured from the world's edge set on the first Advance, so the model is
// "link flapping over the deployed radio topology" — the dynamics both the
// gossip-routing and 1/2-disk-routing evaluations (PAPERS.md) exercise.
type MarkovLinks struct {
	// Seed drives the chain randomness.
	Seed uint64
	// PDown is the per-epoch up→down transition probability.
	PDown float64
	// PUp is the per-epoch down→up transition probability.
	PUp float64

	src      *prng.Source
	underlay []Edge
	up       []bool
}

// Advance applies one epoch of link transitions.
func (m *MarkovLinks) Advance(w *World, _ int, _ Probe) error {
	if m.src == nil {
		m.src = prng.New(m.Seed)
		m.underlay = w.Edges()
		m.up = make([]bool, len(m.underlay))
		for i := range m.up {
			m.up[i] = true
		}
	}
	for i, e := range m.underlay {
		if m.up[i] {
			if m.src.Float64() < m.PDown {
				if err := w.RemoveEdgeBetween(e.U, e.V); err != nil {
					return err
				}
				m.up[i] = false
			}
		} else if m.src.Float64() < m.PUp {
			if _, _, err := w.AddEdge(e.U, e.V); err != nil {
				return err
			}
			m.up[i] = true
		}
	}
	return nil
}

// sortEdges orders edges canonically; schedules that derive edge sets from
// maps use it so the mutation order (and hence port labeling) is
// deterministic.
func sortEdges(es []Edge) {
	sort.Slice(es, func(i, j int) bool {
		if es[i].U != es[j].U {
			return es[i].U < es[j].U
		}
		return es[i].V < es[j].V
	})
}
