package dynamic

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/chaos"
	"repro/internal/degred"
	"repro/internal/flatgraph"
	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/prng"
)

// Edge is an undirected original-graph link in canonical order (U ≤ V;
// U == V is a self-loop).
type Edge struct {
	U, V graph.NodeID
}

// World owns an evolving network: the live mutable graph, optional node
// positions (mobility models derive connectivity from them), the epoch
// clock, and the compile cache that turns the current topology into the
// degree-reduced flat snapshot the walkers run on. All mutation goes
// through World methods so the topology version is tracked exactly; the
// compile cache is keyed by that version, which is what makes per-epoch
// recompilation an incremental cost instead of a per-hop one.
//
// A World is safe for concurrent use: any number of Routers may share one
// world (the serving layer's named long-lived worlds), each advancing the
// clock as its own walk progresses. State is guarded by an internal
// mutex; Advance additionally serializes whole epochs so a schedule's
// mutation burst is never interleaved with another schedule run, and
// Compiled rebuilds the snapshot under the lock so concurrent routers
// share one recompile instead of racing to duplicate it. The one
// concurrency caveat is Graph(): it returns the live graph, whose direct
// readers synchronize only with mutations made through World methods on
// the same goroutine — concurrent callers should use the locked
// HasNode/NumNodes/NumEdges/Edges accessors instead.
type World struct {
	// advMu serializes Advance calls: one epoch's schedule mutations
	// complete before the next epoch begins. It is always acquired before
	// mu (schedules mutate through the public locked methods), never the
	// other way around.
	advMu sync.Mutex
	// mu guards every field below.
	mu    sync.Mutex
	g     *graph.Graph
	pos   map[graph.NodeID]geom.Point
	sched Schedule

	epoch   int
	version uint64

	compiledVersion uint64
	compiledOK      bool
	red             *degred.Reduced
	flat            *flatgraph.Graph
	recompiles      int64
	cacheHits       int64
	recompileTime   time.Duration

	// Split recompile accounting: every rebuild is either a delta compile
	// (journal drained through degred.ApplyDelta, cost O(diff)) or a full
	// compile (degred.Reduce from scratch, cost O(graph)). The two counters
	// always sum to recompiles, and the two durations to recompileTime.
	deltaRecompiles int64
	fullRecompiles  int64
	deltaTime       time.Duration
	fullTime        time.Duration
	// deltaDisabled forces every rebuild down the full path — used by
	// differential tests and benchmarks that need the O(graph) baseline.
	deltaDisabled bool
	// recompObs, when set, observes every actual rebuild (never cache
	// hits). It runs under the world lock: it must be fast and must not
	// call back into the World.
	recompObs func(path string, version uint64, d time.Duration)

	// chaos is the optional fault injector (nil = off). It sits outside mu
	// so the per-hop read on the walk hot path is one atomic load.
	chaos atomic.Pointer[chaos.Injector]
}

// NewWorld builds a world over a private clone of g, evolving under sched
// (nil = static). The caller's graph is never mutated. The private clone
// carries a mutation journal so epoch recompiles can take the delta path.
func NewWorld(g *graph.Graph, sched Schedule) *World {
	w := &World{g: g.Clone(), sched: sched}
	w.g.SetJournal(graph.NewJournal(0))
	return w
}

// NewWorldFromCompiled builds a world over a private clone of g and seeds
// the epoch-0 compile cache with an existing reduction of g, so a prepared
// engine's compile work is reused until the first mutation. red must be
// the reduction of g.
func NewWorldFromCompiled(g *graph.Graph, red *degred.Reduced, sched Schedule) *World {
	w := NewWorld(g, sched)
	if red != nil {
		w.red, w.flat = red, red.Flat()
		w.compiledVersion, w.compiledOK = w.version, w.flat != nil
	}
	return w
}

// Graph returns the live graph. Callers must treat it as read-only (all
// mutation goes through the World so versioning stays exact) and, when
// other goroutines share the world, must not read it while an Advance may
// be mutating — use HasNode/NumNodes/NumEdges/Edges for synchronized
// reads.
func (w *World) Graph() *graph.Graph { return w.g }

// HasNode reports whether node v currently exists. Safe under concurrent
// mutation.
func (w *World) HasNode(v graph.NodeID) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.g.HasNode(v)
}

// NumNodes returns the current node count. Safe under concurrent mutation.
func (w *World) NumNodes() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.g.NumNodes()
}

// NumEdges returns the current link count. Safe under concurrent mutation.
func (w *World) NumEdges() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.g.NumEdges()
}

// Epoch returns the current epoch number (0 before the first Advance).
func (w *World) Epoch() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.epoch
}

// Version returns the topology version: it increments on every structural
// mutation and is the compile-cache key.
func (w *World) Version() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.version
}

// Recompiles returns how many times Compiled actually rebuilt the
// reduction+snapshot (cache misses) over the world's lifetime.
func (w *World) Recompiles() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.recompiles
}

// Snapshot is a consistent point-in-time summary of a world's state —
// all fields observed under one lock, so a reader racing a concurrent
// Advance never pairs one epoch's clock with another epoch's topology.
type Snapshot struct {
	Epoch      int
	Version    uint64
	Nodes      int
	Links      int
	Recompiles int64
	CacheHits  int64
	// DeltaRecompiles and FullRecompiles split Recompiles by compile path:
	// journal-driven O(diff) patches versus from-scratch O(graph) rebuilds.
	DeltaRecompiles int64
	FullRecompiles  int64
	// RecompileTime is the total wall time spent in churn-forced rebuilds;
	// DeltaRecompileTime and FullRecompileTime split it by path.
	RecompileTime      time.Duration
	DeltaRecompileTime time.Duration
	FullRecompileTime  time.Duration
}

// Snapshot returns the world's current state atomically.
func (w *World) Snapshot() Snapshot {
	w.mu.Lock()
	defer w.mu.Unlock()
	return Snapshot{
		Epoch:              w.epoch,
		Version:            w.version,
		Nodes:              w.g.NumNodes(),
		Links:              w.g.NumEdges(),
		Recompiles:         w.recompiles,
		CacheHits:          w.cacheHits,
		DeltaRecompiles:    w.deltaRecompiles,
		FullRecompiles:     w.fullRecompiles,
		RecompileTime:      w.recompileTime,
		DeltaRecompileTime: w.deltaTime,
		FullRecompileTime:  w.fullTime,
	}
}

// SetChaos installs (nil removes) a fault injector. Installed, it can fail
// recompiles and stall epoch advances on this world; the routers layer
// per-hop delays on top. Safe to call while routes are in flight.
func (w *World) SetChaos(inj *chaos.Injector) { w.chaos.Store(inj) }

// Chaos returns the installed fault injector, or nil.
func (w *World) Chaos() *chaos.Injector { return w.chaos.Load() }

// Advance moves the clock to the next epoch and lets the schedule mutate
// the topology. p describes the in-flight walk for reactive schedules
// (pass Probe{} when none is running). Concurrent Advances are serialized:
// on a shared world, topology time ticks with total traffic.
func (w *World) Advance(p Probe) error {
	w.advMu.Lock()
	defer w.advMu.Unlock()
	w.chaos.Load().EpochStall()
	w.mu.Lock()
	w.epoch++
	epoch := w.epoch
	w.mu.Unlock()
	if w.sched == nil {
		return nil
	}
	// The schedule runs outside mu (it mutates through the locked public
	// methods) but inside advMu, so exactly one epoch is in progress.
	if err := w.sched.Advance(w, epoch, p); err != nil {
		return fmt.Errorf("dynamic: epoch %d: %w", epoch, err)
	}
	return nil
}

// Compiled returns the degree reduction and flat CSR snapshot of the
// current topology, rebuilding them only when the version changed since
// the last call — the per-epoch compile cache. The rebuild happens under
// the world lock, so concurrent routers blocked on the same stale version
// share one recompile. The returned artifacts are immutable snapshots,
// safe to walk after the world has moved on.
//
// A rebuild prefers the delta path: if the previous compile is intact and
// the mutation journal is clean, the journaled edge deltas are replayed
// through degred.ApplyDelta, re-gadgeting only the touched nodes and
// patching the CSR snapshot in O(diff). Anything that poisons the journal
// (overflow, node insertion, label shuffles) or trips the re-gadgeting
// fraction guard falls back to a full O(graph) Reduce. Both paths produce
// byte-for-byte identical routing behaviour; only the price differs.
func (w *World) Compiled() (*degred.Reduced, *flatgraph.Graph, error) {
	red, flat, _, _, err := w.compiled()
	return red, flat, err
}

// compiled is Compiled plus the epoch and topology version the artifacts
// are current at, read under the same lock: a certificate or cursor
// stamped with them names the snapshot it was decided on, even when a
// concurrent Advance lands right after.
func (w *World) compiled() (*degred.Reduced, *flatgraph.Graph, int, uint64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.compiledOK && w.compiledVersion == w.version {
		w.cacheHits++
		return w.red, w.flat, w.epoch, w.version, nil
	}
	if err := w.chaos.Load().CompileFault(); err != nil {
		// The journal is NOT drained on an injected fault: the deltas are
		// still pending and the next attempt replays them.
		return nil, nil, 0, 0, fmt.Errorf("dynamic: recompile at version %d: %w", w.version, err)
	}
	start := time.Now()
	j := w.g.Journal()
	path := "full"
	var red *degred.Reduced
	if !w.deltaDisabled && w.compiledOK && w.red != nil && j != nil && !j.Dirty() {
		if dr, err := w.red.ApplyDelta(w.g, j.Peek()); err == nil {
			red, path = dr, "delta"
		}
	}
	if red == nil {
		r, err := degred.Reduce(w.g)
		if err != nil {
			return nil, nil, 0, 0, fmt.Errorf("dynamic: recompile at version %d: %w", w.version, err)
		}
		red = r
	}
	flat := red.Flat()
	if flat == nil {
		return nil, nil, 0, 0, fmt.Errorf("dynamic: flat snapshot failed at version %d", w.version)
	}
	if j != nil {
		j.Reset()
	}
	elapsed := time.Since(start)
	w.red, w.flat = red, flat
	w.compiledVersion, w.compiledOK = w.version, true
	w.recompiles++
	w.recompileTime += elapsed
	if path == "delta" {
		w.deltaRecompiles++
		w.deltaTime += elapsed
	} else {
		w.fullRecompiles++
		w.fullTime += elapsed
	}
	if w.recompObs != nil {
		w.recompObs(path, w.version, elapsed)
	}
	return w.red, w.flat, w.epoch, w.version, nil
}

// SetRecompileObserver installs fn to be called on every actual rebuild
// (cache hits never fire it) with the compile path ("delta" or "full"),
// the topology version compiled, and the wall time spent. fn runs under
// the world lock: keep it fast and never call back into the World. Pass
// nil to remove.
func (w *World) SetRecompileObserver(fn func(path string, version uint64, d time.Duration)) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.recompObs = fn
}

// SetDeltaCompilation enables or disables the delta compile path (enabled
// by default). Disabling forces every rebuild through the full O(graph)
// Reduce — the baseline that differential tests and benchmarks compare
// the delta path against.
func (w *World) SetDeltaCompilation(enabled bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.deltaDisabled = !enabled
}

// AddEdge inserts an edge between u and v (assigning the next free port at
// each endpoint) and bumps the topology version.
func (w *World) AddEdge(u, v graph.NodeID) (portU, portV int, err error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	pu, pv, err := w.g.AddEdge(u, v)
	if err == nil {
		w.version++
	}
	return pu, pv, err
}

// RemoveEdgeBetween deletes one edge joining u and v (the lowest-port one
// at u), bumping the topology version. It reports graph.ErrPortRange if no
// such edge exists.
func (w *World) RemoveEdgeBetween(u, v graph.NodeID) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.g.Degree(u) < 0 {
		return fmt.Errorf("%w: %d", graph.ErrNodeNotFound, u)
	}
	p, ok := w.g.PortTo(u, v)
	if !ok {
		return fmt.Errorf("%w: no edge %d-%d", graph.ErrPortRange, u, v)
	}
	if err := w.g.RemoveEdge(u, p); err != nil {
		return err
	}
	w.version++
	return nil
}

// Edges lists the current links once each, in the deterministic scan order
// (node insertion order, ports ascending). Self-loops appear once.
func (w *World) Edges() []Edge {
	w.mu.Lock()
	defer w.mu.Unlock()
	var out []Edge
	for _, v := range w.g.Nodes() {
		for p := 0; p < w.g.Degree(v); p++ {
			h, err := w.g.Neighbor(v, p)
			if err != nil {
				continue
			}
			if h.To > v || (h.To == v && h.ToPort > p) {
				out = append(out, Edge{U: v, V: h.To})
			}
		}
	}
	return out
}

// Pos returns node v's position, if one is known.
func (w *World) Pos(v graph.NodeID) (geom.Point, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	p, ok := w.pos[v]
	return p, ok
}

// SetPos places node v. Positions alone carry no topology (edges change
// only via Add/RemoveEdge), so this does not bump the version.
func (w *World) SetPos(v graph.NodeID, p geom.Point) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.setPosLocked(v, p)
}

func (w *World) setPosLocked(v graph.NodeID, p geom.Point) {
	if w.pos == nil {
		w.pos = make(map[graph.NodeID]geom.Point, w.g.NumNodes())
	}
	w.pos[v] = p
}

// SetPositions installs a full placement (copied).
func (w *World) SetPositions(pos map[graph.NodeID]geom.Point) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.pos = make(map[graph.NodeID]geom.Point, len(pos))
	for v, p := range pos {
		w.pos[v] = p
	}
}

// HasPositions reports whether every node has a position.
func (w *World) HasPositions() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.pos == nil {
		return false
	}
	for _, v := range w.g.Nodes() {
		if _, ok := w.pos[v]; !ok {
			return false
		}
	}
	return true
}

// SeedPositions places every node without a position uniformly at random
// in the unit square, deterministically in seed. Mobility schedules call
// this when handed a world that has no geometry yet.
func (w *World) SeedPositions(seed uint64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	src := prng.New(seed)
	for _, v := range w.g.Nodes() {
		if _, ok := w.pos[v]; !ok {
			w.setPosLocked(v, geom.Point{X: src.Float64(), Y: src.Float64()})
		}
	}
}
